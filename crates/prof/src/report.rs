//! Rustc-style text renderers for profiles, introspections, and bench
//! diffs — the human half of `bricks prof` (`--json` emits the structures
//! themselves).

use gpu_sim::SimIntrospection;

use crate::bench::{MetricDelta, SideStats};
use crate::sweep::SweepProfile;
use crate::tree::{ProfileNode, ProfileTree};

/// Human-readable byte count (`1.5 MiB`).
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: &[&str] = &["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// Human-readable duration from nanoseconds (`1.53 ms`).
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v < 1e3 {
        format!("{ns} ns")
    } else if v < 1e6 {
        format!("{:.2} us", v / 1e3)
    } else if v < 1e9 {
        format!("{:.2} ms", v / 1e6)
    } else {
        format!("{:.2} s", v / 1e9)
    }
}

/// Render a sweep self-profile: attribution summary, phase table with
/// duration quantiles, and the hot-cell list.
pub fn render_sweep_profile(p: &SweepProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "sweep profile: wall {}, attributed {} ({:.1}%), allocated {}\n",
        fmt_ns(p.wall_ns),
        fmt_ns(p.attributed_ns),
        p.attributed_frac * 100.0,
        fmt_bytes(p.alloc_bytes)
    ));
    if !p.phases.is_empty() {
        out.push_str(&format!(
            "\n{:<12} {:>7} {:>12} {:>7} {:>12} {:>10} {:>10} {:>10}\n",
            "phase", "count", "total", "wall%", "alloc", "mean", "p50", "p99"
        ));
        for ph in &p.phases {
            out.push_str(&format!(
                "{:<12} {:>7} {:>12} {:>6.1}% {:>12} {:>8.1}us {:>8.1}us {:>8.1}us\n",
                ph.name,
                ph.count,
                fmt_ns(ph.total_ns),
                ph.wall_frac * 100.0,
                fmt_bytes(ph.alloc_bytes),
                ph.dur_us.mean(),
                ph.dur_us.quantile(0.5),
                ph.dur_us.quantile(0.99)
            ));
        }
    }
    if !p.hot_cells.is_empty() {
        out.push_str("\nhottest cells:\n");
        for (i, c) in p.hot_cells.iter().enumerate() {
            out.push_str(&format!(
                "  {:>2}. {:<40} {:>12} {:>12}\n",
                i + 1,
                c.name,
                fmt_ns(c.total_ns),
                fmt_bytes(c.alloc_bytes)
            ));
        }
    }
    out
}

/// Render a merged profile tree with indentation, counts, total/self time
/// and allocation per node.
pub fn render_tree(t: &ProfileTree) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<50} {:>7} {:>12} {:>12} {:>12}\n",
        "span", "count", "total", "self", "alloc"
    ));
    fn go(nodes: &[ProfileNode], depth: usize, out: &mut String) {
        for n in nodes {
            let label = format!("{}{}", "  ".repeat(depth), n.name);
            out.push_str(&format!(
                "{:<50} {:>7} {:>12} {:>12} {:>12}\n",
                label,
                n.count,
                fmt_ns(n.total_ns),
                fmt_ns(n.self_ns),
                fmt_bytes(n.alloc_bytes)
            ));
            go(&n.children, depth + 1, out);
        }
    }
    go(&t.roots, 0, &mut out);
    out
}

/// Render a simulator introspection: header, per-class traffic table
/// (with the bit-exact totals line), SM groups, and a compact timeline.
pub fn render_introspection(intro: &SimIntrospection) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "memory simulation: {} blocks in {} classes\n",
        intro.num_blocks, intro.num_classes
    ));
    match intro.wave_period {
        Some(p) => out.push_str(&format!(
            "fast-forward: period {p} waves, {} waves skipped\n",
            intro.waves_skipped
        )),
        None => out.push_str("fast-forward: not engaged\n"),
    }

    out.push_str(&format!(
        "\n{:<8} {:>7} {:>12} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
        "class", "blocks", "l1 req", "l1 hit%", "l2 req", "dram rd", "dram wr", "page h/m"
    ));
    let mut row = |name: &str, blocks: String, t: &gpu_sim::TrafficBucket| {
        let sectors = t.l1.hit_sectors + t.l1.miss_sectors;
        let hitp = if sectors == 0 {
            0.0
        } else {
            t.l1.hit_sectors as f64 / sectors as f64 * 100.0
        };
        out.push_str(&format!(
            "{:<8} {:>7} {:>12} {:>7.1}% {:>12} {:>12} {:>12} {:>12}\n",
            name,
            blocks,
            fmt_bytes(t.l1.requested_bytes),
            hitp,
            fmt_bytes(t.l2.requested_bytes),
            fmt_bytes(t.dram_read_bytes),
            fmt_bytes(t.dram_write_bytes),
            format!("{}/{}", t.page_hits, t.page_misses)
        ));
    };
    for c in &intro.classes {
        row(&format!("{}", c.class), format!("{}", c.blocks), &c.traffic);
    }
    row("flush", "-".into(), &intro.flush);
    row("total", format!("{}", intro.num_blocks), &intro.totals());

    if !intro.sm_groups.is_empty() {
        out.push_str(&format!(
            "\n{:<10} {:>8} {:>12} {:>8}\n",
            "sm group", "members", "l1 req", "l1 hit%"
        ));
        for g in &intro.sm_groups {
            let sectors = g.l1.hit_sectors + g.l1.miss_sectors;
            let hitp = if sectors == 0 {
                0.0
            } else {
                g.l1.hit_sectors as f64 / sectors as f64 * 100.0
            };
            out.push_str(&format!(
                "sm{:<8} {:>8} {:>12} {:>7.1}%\n",
                g.representative,
                g.members,
                fmt_bytes(g.l1.requested_bytes),
                hitp
            ));
        }
    }

    if !intro.timeline.is_empty() {
        out.push_str(&format!(
            "\n{:<8} {:>3} {:>12} {:>12} {:>12} {:>12}\n",
            "wave", "ff", "l2 req", "dram rd", "dram wr", "page h/m"
        ));
        for s in &intro.timeline {
            out.push_str(&format!(
                "{:<8} {:>3} {:>12} {:>12} {:>12} {:>12}\n",
                s.wave,
                if s.fast_forwarded { "ff" } else { "" },
                fmt_bytes(s.l2_requested_bytes),
                fmt_bytes(s.dram_read_bytes),
                fmt_bytes(s.dram_write_bytes),
                format!("{}/{}", s.page_hits, s.page_misses)
            ));
        }
    }
    out
}

/// Render a bench comparison as one line per rule: each side's median
/// over its rounds and its spread, the change of the median, the
/// tolerance and the verdict.
pub fn render_diff(deltas: &[MetricDelta]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>16} {:>7} {:>16} {:>7} {:>8} {:>4}  verdict\n",
        "metric", "base median", "spread", "new median", "spread", "change", "tol"
    ));
    let side = |s: Option<SideStats>| match s {
        Some(s) => (
            format!("{:.3} x{}", s.median, s.rounds),
            format!("{:.1}%", s.spread() * 100.0),
        ),
        None => ("-".into(), "-".into()),
    };
    for d in deltas {
        let ((base, base_spread), (new, new_spread)) = (side(d.base), side(d.new));
        let change = d
            .ratio
            .map_or("-".into(), |q| format!("{:+.1}%", (q - 1.0) * 100.0));
        out.push_str(&format!(
            "{:<26} {:>16} {:>7} {:>16} {:>7} {:>8} {:>3.0}%  {}\n",
            d.path,
            base,
            base_spread,
            new,
            new_spread,
            change,
            d.tolerance * 100.0,
            d.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::diff_bench;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(1_530_000), "1.53 ms");
    }

    #[test]
    fn diff_render_flags_regressions() {
        let base = serde_json::parse(
            r#"{"sweep": {"cold_cells_per_s": 10.0, "warm_cells_per_s": 100.0},
                "fidelity": {"speedup": 8.0}}"#,
        )
        .unwrap();
        let slow = serde_json::parse(
            r#"{"sweep": {"cold_cells_per_s": 7.0, "warm_cells_per_s": 100.0},
                "fidelity": {"speedup": 8.0}}"#,
        )
        .unwrap();
        let deltas = diff_bench(&[base.clone(), base], &[slow]).unwrap();
        let text = render_diff(&deltas);
        assert!(text.contains("regressed"), "{text}");
        assert!(text.contains("absent"), "{text}"); // fidelity_full
        assert!(text.contains("-30.0%"), "{text}");
        assert!(text.contains("10.000 x2"), "{text}");
        assert!(text.contains("7.000 x1"), "{text}");
        assert!(text.contains("0.0%"), "{text}"); // the spreads
    }

    #[test]
    fn introspection_render_has_total_row() {
        let intro = SimIntrospection {
            num_blocks: 4,
            num_classes: 1,
            classes: vec![gpu_sim::ClassTraffic {
                class: 0,
                blocks: 4,
                ..Default::default()
            }],
            ..Default::default()
        };
        let text = render_introspection(&intro);
        assert!(text.contains("total"), "{text}");
        assert!(text.contains("flush"), "{text}");
    }
}
