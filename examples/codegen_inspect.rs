//! Inspect what the code generator produces: the Fig. 1 DSL listing, the
//! Fig. 2 scalar kernels in all three dialects, and the generated vector
//! kernel (IR statistics + source rendering) for a chosen stencil and
//! architecture width.
//!
//! ```text
//! cargo run --release --example codegen_inspect             # star r2, w=32
//! cargo run --release --example codegen_inspect -- cube 2 64
//! ```

use bricks_repro::codegen::{
    emit_scalar, emit_vector, generate, CodegenOptions, Dialect, LayoutKind, Strategy,
    AUTO_REGISTER_BUDGET,
};
use bricks_repro::dsl::shape::StencilShape;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (shape, width) = match args.as_slice() {
        [] => (StencilShape::star(2), 32),
        [kind, radius, width] => {
            let r: u32 = radius.parse().expect("radius");
            let w: usize = width.parse().expect("width");
            let s = match kind.as_str() {
                "star" => StencilShape::star(r),
                "cube" => StencilShape::cube(r),
                other => panic!("unknown shape {other}"),
            };
            (s, w)
        }
        _ => panic!("usage: codegen_inspect [star|cube RADIUS WIDTH]"),
    };

    let stencil = shape.stencil();
    let bindings = stencil.default_bindings();

    println!("==== DSL (paper Fig. 1) ====\n{stencil}");

    println!("==== scalar kernels on bricks (paper Fig. 2) ====");
    for dialect in [Dialect::Cuda, Dialect::Hip, Dialect::Sycl] {
        println!("---- {} ----", dialect.name());
        println!(
            "{}",
            emit_scalar(&stencil, &bindings, LayoutKind::Brick, dialect)
        );
    }

    println!("==== vector code generation (width {width}) ====");
    for strategy in [Strategy::Gather, Strategy::Scatter] {
        let kernel = generate(
            &stencil,
            &bindings,
            LayoutKind::Brick,
            width,
            CodegenOptions {
                strategy,
                ..Default::default()
            },
        )
        .expect("codegen");
        let s = &kernel.stats;
        println!(
            "-- {strategy}: {} loads, {} shuffles, {} FMA, {} add, {} mul, \
             {} stores, {} regs/thread --",
            s.loads, s.shifts, s.fmas, s.adds, s.muls, s.stores, kernel.num_regs
        );
        if strategy == Strategy::Gather {
            let src = emit_vector(&kernel, Dialect::Cuda);
            let lines: Vec<&str> = src.lines().collect();
            for line in lines.iter().take(20) {
                println!("{line}");
            }
            if lines.len() > 20 {
                println!("... ({} more lines)", lines.len() - 20);
            }
        }
    }

    let auto = generate(
        &stencil,
        &bindings,
        LayoutKind::Brick,
        width,
        CodegenOptions::default(),
    )
    .expect("codegen");
    println!(
        "\nAuto strategy selected: {} (register budget {})",
        auto.strategy, AUTO_REGISTER_BUDGET
    );
}
