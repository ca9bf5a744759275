//! Chapter 6: Scale-Out Processors in the post-Moore era (Figs 6.4–6.7,
//! Tables 6.1/6.2).

use sop_3d::{compose_3d, sweep_3d, Pod3d, StackStrategy};
use sop_tech::CoreKind;

/// Core counts swept in Figs 6.4/6.6.
pub const CORE_SWEEP: [u32; 9] = [4, 8, 16, 32, 64, 128, 256, 512, 1024];
/// LLC capacities swept in Figs 6.4/6.6.
pub const LLC_SWEEP: [f64; 5] = [2.0, 4.0, 8.0, 16.0, 32.0];

/// Fig 6.4 (OoO) or Fig 6.6 (in-order) as text: PD3D sweeps per die
/// count, one row per LLC capacity.
pub fn pd3d_sweep_text(kind: CoreKind) -> String {
    let fig = if kind == CoreKind::OutOfOrder {
        "6.4"
    } else {
        "6.6"
    };
    let mut out = format!("Fig {fig} — volume-normalised PD, {kind:?} cores, 1/2/4 dies\n");
    for dies in [1u32, 2, 4] {
        out += &format!("  == {dies} die(s) ==\n");
        for mb in LLC_SWEEP {
            let row: Vec<String> = sweep_3d(kind, dies, &CORE_SWEEP, &[mb])
                .iter()
                .map(|p| format!("{}c:{:.4}", p.cores, p.pd3d))
                .collect();
            out += &format!("    {mb}MB  {}\n", row.join(" "));
        }
    }
    out
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

/// `kind`'s base pod stacked on each of `dies`, fixed-pod then
/// fixed-distance. One die has only the fixed-pod variant: the two are
/// identical there.
pub fn stacked_pods(kind: CoreKind, dies: &[u32]) -> Vec<Pod3d> {
    let (cores, mb) = base_pod(kind);
    dies.iter()
        .flat_map(|&d| {
            [StackStrategy::FixedPod, StackStrategy::FixedDistance]
                .into_iter()
                .filter(move |&s| d > 1 || s == StackStrategy::FixedPod)
                .map(move |s| Pod3d::new(kind, cores, mb, d, s))
        })
        .collect()
}

/// Fig 6.5 (OoO) or Fig 6.7 (in-order) as text: fixed-pod vs
/// fixed-distance strategies across die counts.
pub fn strategy_text(kind: CoreKind) -> String {
    let (cores, mb) = base_pod(kind);
    let fig = if kind == CoreKind::OutOfOrder {
        "6.5"
    } else {
        "6.7"
    };
    let dies: &[u32] = if kind == CoreKind::InOrder {
        &[1, 2, 3]
    } else {
        &[1, 2, 3, 4]
    };
    let mut out = format!("Fig {fig} — fixed-pod vs fixed-distance, base {cores}c/{mb}MB\n");
    for pod in stacked_pods(kind, dies) {
        out += &format!(
            "  L={} {:14} {:>4}c/{:>4.1}MB  PD3D {:.4}\n",
            pod.dies,
            format!("{:?}", pod.strategy),
            pod.total_cores(),
            pod.total_llc_mb(),
            pod.metrics().performance_density_3d
        );
    }
    out
}

/// Table 6.2's pods: each core type's base pod on one die and stacked
/// two and four (OoO) or three (in-order, bandwidth-bound) high.
pub fn tab6_2() -> Vec<Pod3d> {
    [
        stacked_pods(CoreKind::OutOfOrder, &[1, 2, 4]),
        stacked_pods(CoreKind::InOrder, &[1, 2, 3]),
    ]
    .concat()
}

/// Table 6.2 (2D and 3D Scale-Out Processor specifications) as text.
pub fn tab6_2_text() -> String {
    let mut out = String::from("Table 6.2 — 2D and 3D Scale-Out Processors (250W, DDR4)\n");
    out += &format!(
        "  {:10} {:>4} {:14} {:>5} {:>10} {:>4} {:>8}\n",
        "core", "dies", "strategy", "pods", "pod config", "MCs", "PD3D"
    );
    for pod in tab6_2() {
        let chip = compose_3d(&pod);
        out += &format!(
            "  {:10} {:>4} {:14} {:>5} {:>6}c/{:>3.0}MB {:>4} {:>8.4}\n",
            pod.core_kind.label(),
            pod.dies,
            format!("{:?}", pod.strategy),
            chip.pods,
            pod.total_cores(),
            pod.total_llc_mb(),
            chip.memory_channels,
            chip.performance_density_3d
        );
    }
    out
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
