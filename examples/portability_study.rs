//! A miniature of the paper's study: one stencil across all three
//! simulated GPUs and their programming models, scored with the Roofline
//! and Pennycook's performance-portability metric.
//!
//! ```text
//! cargo run --release --example portability_study            # 13pt star
//! cargo run --release --example portability_study -- cube 2  # 125pt
//! ```

use bricks_repro::dsl::shape::StencilShape;
use bricks_repro::dsl::StencilAnalysis;
use bricks_repro::experiments::KernelConfig;
use bricks_repro::gpu_sim::{simulate, GpuArch, ProgModel};
use bricks_repro::metrics::pennycook_p;
use bricks_repro::roofline::measure;
use bricks_repro::tuner::cell::{geometry, paper_spec, program};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shape = match args.as_slice() {
        [] => StencilShape::star(2),
        [kind, radius] => {
            let r: u32 = radius.parse().expect("radius must be a number");
            match kind.as_str() {
                "star" => StencilShape::star(r),
                "cube" => StencilShape::cube(r),
                other => panic!("unknown shape {other} (star|cube)"),
            }
        }
        _ => panic!("usage: portability_study [star|cube RADIUS]"),
    };
    let analysis = StencilAnalysis::of_shape(&shape);
    println!(
        "stencil: {} ({} points, {} coefficient classes, theoretical AI {:.3})",
        shape, analysis.points, analysis.classes, analysis.theoretical_ai
    );

    let n = 256;
    println!("domain: {n}^3 doubles, out of place\n");
    println!(
        "{:<28} {:>8} {:>8} {:>7} {:>9} {:>8}",
        "platform", "GFLOP/s", "AI", "%roofl", "%theo-AI", "DRAM GB"
    );

    let mut efficiencies = Vec::new();
    for (arch, model) in [
        (GpuArch::a100(), ProgModel::Cuda),
        (GpuArch::a100(), ProgModel::Sycl),
        (GpuArch::mi250x_gcd(), ProgModel::Hip),
        (GpuArch::mi250x_gcd(), ProgModel::Sycl),
        (GpuArch::pvc_stack(), ProgModel::Sycl),
    ] {
        let params = paper_spec(arch.simd_width);
        let spec = program(&shape, KernelConfig::BricksCodegen, &params)
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
        let geom = geometry(&shape, KernelConfig::BricksCodegen, &params, n);
        let rl = measure(&arch, model).expect("supported pair");
        let sim =
            simulate(&spec, &geom, &arch, model, analysis.flops_per_point).expect("supported pair");
        let frac = rl.fraction(sim.gflops, sim.ai);
        let frac_ai = sim.ai / analysis.theoretical_ai;
        println!(
            "{:<28} {:>8.0} {:>8.3} {:>6.0}% {:>8.0}% {:>8.2}",
            format!("{} {}", sim.gpu, model),
            sim.gflops,
            sim.ai,
            frac * 100.0,
            frac_ai * 100.0,
            sim.mem.dram_bytes as f64 / 1e9,
        );
        efficiencies.push(Some(frac));
    }

    let p = pennycook_p(&efficiencies);
    println!(
        "\nPennycook P (fraction of Roofline, bricks codegen): {:.0}%",
        p * 100.0
    );
}
