//! Chapter 6: Scale-Out Processors in the post-Moore era (Figs 6.4–6.7,
//! Tables 6.1/6.2).

use sop_3d::{compose_3d, sweep_3d, Pod3d, StackStrategy};
use sop_tech::CoreKind;

/// Core counts swept in Figs 6.4/6.6.
pub const CORE_SWEEP: [u32; 9] = [4, 8, 16, 32, 64, 128, 256, 512, 1024];
/// LLC capacities swept in Figs 6.4/6.6.
pub const LLC_SWEEP: [f64; 5] = [2.0, 4.0, 8.0, 16.0, 32.0];

/// Prints Fig 6.4 (OoO) or Fig 6.6 (in-order): PD3D sweeps per die
/// count, one row per LLC capacity.
pub fn print_pd3d_sweep(kind: CoreKind) {
    let fig = if kind == CoreKind::OutOfOrder {
        "6.4"
    } else {
        "6.6"
    };
    println!("Fig {fig} — volume-normalised PD, {kind:?} cores, 1/2/4 dies");
    for dies in [1u32, 2, 4] {
        println!("  == {dies} die(s) ==");
        for mb in LLC_SWEEP {
            let row: Vec<String> = sweep_3d(kind, dies, &CORE_SWEEP, &[mb])
                .iter()
                .map(|p| format!("{}c:{:.4}", p.cores, p.pd3d))
                .collect();
            println!("    {mb}MB  {}", row.join(" "));
        }
    }
}

/// The single-die base pod chapter 6 derives for each core type. Our
/// calibrated sweep lands on the thesis' 32-core/2MB (OoO) and
/// 64-core/2MB (in-order) bases.
pub fn base_pod(kind: CoreKind) -> (u32, f64) {
    match kind {
        CoreKind::OutOfOrder | CoreKind::Conventional => (32, 2.0),
        CoreKind::InOrder => (64, 2.0),
    }
}

/// Prints Fig 6.5 (OoO) or Fig 6.7 (in-order): fixed-pod vs
/// fixed-distance strategies across die counts.
pub fn print_strategy_comparison(kind: CoreKind) {
    let (cores, mb) = base_pod(kind);
    let fig = if kind == CoreKind::OutOfOrder {
        "6.5"
    } else {
        "6.7"
    };
    let max_dies = if kind == CoreKind::InOrder { 3 } else { 4 };
    println!("Fig {fig} — fixed-pod vs fixed-distance, base {cores}c/{mb}MB");
    for dies in 1..=max_dies {
        for strategy in [StackStrategy::FixedPod, StackStrategy::FixedDistance] {
            if dies == 1 && strategy == StackStrategy::FixedDistance {
                continue; // identical to fixed-pod at one die
            }
            let pod = Pod3d::new(kind, cores, mb, dies, strategy);
            let m = pod.metrics();
            println!(
                "  L={dies} {:14} {:>4}c/{:>4.1}MB  PD3D {:.4}",
                format!("{strategy:?}"),
                pod.total_cores(),
                pod.total_llc_mb(),
                m.performance_density_3d
            );
        }
    }
}

/// Prints Table 6.2: 2D and 3D Scale-Out Processor specifications.
pub fn print_tab6_2() {
    println!("Table 6.2 — 2D and 3D Scale-Out Processors (250W, DDR4)");
    println!(
        "  {:10} {:>4} {:14} {:>5} {:>10} {:>4} {:>8}",
        "core", "dies", "strategy", "pods", "pod config", "MCs", "PD3D"
    );
    for kind in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        let (cores, mb) = base_pod(kind);
        let max_dies: &[u32] = if kind == CoreKind::InOrder {
            &[1, 2, 3]
        } else {
            &[1, 2, 4]
        };
        for &dies in max_dies {
            for strategy in [StackStrategy::FixedPod, StackStrategy::FixedDistance] {
                if dies == 1 && strategy == StackStrategy::FixedDistance {
                    continue;
                }
                let pod = Pod3d::new(kind, cores, mb, dies, strategy);
                let chip = compose_3d(&pod);
                println!(
                    "  {:10} {:>4} {:14} {:>5} {:>6}c/{:>3.0}MB {:>4} {:>8.4}",
                    kind.label(),
                    dies,
                    format!("{strategy:?}"),
                    chip.pods,
                    pod.total_cores(),
                    pod.total_llc_mb(),
                    chip.memory_channels,
                    chip.performance_density_3d
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ch6;

    #[test]
    fn more_dies_never_hurt_the_best_config() {
        for kind in [CoreKind::OutOfOrder, CoreKind::InOrder] {
            let best = |dies: u32| {
                sweep_3d(kind, dies, &CORE_SWEEP, &LLC_SWEEP)
                    .into_iter()
                    .map(|p| p.pd3d)
                    .fold(f64::MIN, f64::max)
            };
            assert!(best(2) >= best(1) * 0.995, "{kind:?}");
            assert!(best(4) >= best(2) * 0.995, "{kind:?}");
        }
    }

    #[test]
    fn base_pods_follow_chapter_6() {
        assert_eq!(ch6::base_pod(CoreKind::OutOfOrder), (32, 2.0));
        assert_eq!(ch6::base_pod(CoreKind::InOrder), (64, 2.0));
    }

    #[test]
    fn stacking_strategies_both_beat_the_2d_pod() {
        // Table 6.2's point: every 3D variant has higher PD3D than the 2D
        // pod of the same core type.
        for kind in [CoreKind::OutOfOrder, CoreKind::InOrder] {
            let (cores, mb) = base_pod(kind);
            let flat = Pod3d::new(kind, cores, mb, 1, StackStrategy::FixedPod)
                .metrics()
                .performance_density_3d;
            for strategy in [StackStrategy::FixedPod, StackStrategy::FixedDistance] {
                let stacked = Pod3d::new(kind, cores, mb, 2, strategy)
                    .metrics()
                    .performance_density_3d;
                assert!(stacked > flat * 0.99, "{kind:?} {strategy:?}");
            }
        }
    }
}
