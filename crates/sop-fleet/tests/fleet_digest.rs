//! Golden digests of whole fleet outcomes.
//!
//! Each configuration runs once and its outcome is hashed in full:
//! every field of every window, every bucket of every histogram (with
//! its count, sum and maximum), the run totals and the fault counts.
//! Resilience cells additionally hash their report row, which carries
//! the chip and domain fault counts and every derived figure the
//! `sop fleet --resilience` report prints. The plain configurations
//! cover both repair policies at two seeds, an overloaded fleet (the
//! admission-overflow path), a one-server drain fleet that leaves no
//! routable server while it is down, and two low-capacity fleets; the
//! resilience configurations cover every topology x retry x shed cell
//! at 16 servers, the storm pair at 16 servers (the outage takes the
//! whole fleet) and at 64 (it takes half), and at each low capacity a
//! hedging cell and a shedding one. The pinned digests were measured on the
//! simulator that ran the plain fleet and the resilience layer as two
//! separate tick loops, so they hold any restructuring of the loop to
//! its exact results; the low-capacity digests were measured on the
//! loop that divided by the server's capacity once per latency bucket,
//! so they hold its replacement to the same results.
//!
//! Every other cell serves 5000 requests per tick or more, so
//! consecutive queue positions differ by under one millisecond and
//! never skip a histogram bucket. The low-capacity cells serve 600
//! (under 1000, so positions differ by more than a millisecond) and 20
//! per tick. At 20 a position waits 50 ms longer than the one before,
//! so a run of latencies jumps from the 16..31 ms bucket straight to
//! the 64..127 ms one.

use sop_fleet::{
    resilience_grid, simulate, simulate_resilience, storm_pair, DomainTopology, FleetOutcome,
    FleetPointSpec, Policy, ResilienceParams, ResiliencePointSpec, RetryPolicy, SimParams,
};

/// Healthy per-server capacities of the low-capacity cells.
const LOW_CAPACITIES: [u64; 2] = [600, 20];

/// FNV-1a over bytes: stable across platforms and toolchains, unlike
/// the standard library's hasher.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn hist(&mut self, h: &sop_obs::Histogram) {
        for (upper, count) in h.buckets() {
            self.word(upper);
            self.word(count);
        }
        self.word(h.count());
        self.word(h.sum());
        self.word(h.max());
    }
}

fn plain_digest(p: &SimParams) -> u64 {
    let out = simulate(p);
    let mut d = Digest::new();
    for w in &out.windows {
        for v in [
            w.start_tick,
            w.ticks,
            w.offered,
            w.accepted,
            w.dropped,
            w.served,
            w.inflight_start,
            w.inflight_end,
        ] {
            d.word(v);
        }
        d.hist(&w.hist);
    }
    d.hist(&out.latency);
    for v in [
        out.offered(),
        out.served(),
        out.dropped(),
        out.faults_struck,
        out.faults_repaired,
    ] {
        d.word(v);
    }
    d.0
}

fn resilience_digest(spec: &ResiliencePointSpec) -> u64 {
    let mut d = resilience_outcome_digest(&simulate_resilience(&spec.params()));
    d.bytes(spec.evaluate().to_compact_string().as_bytes());
    d.0
}

/// A low-capacity resilience cell: the rack topology and hedging
/// clients, with the shedder armed or not. Unshedded queues grow past
/// the hedge threshold, so hedged latencies are recorded; a shedding
/// server admits under the shed target instead of the deadline.
fn low_capacity_resilience(per_server_qps: u64, shed: bool) -> ResilienceParams {
    ResilienceParams::quick(
        16,
        per_server_qps,
        Policy::Derate,
        42,
        DomainTopology::from_label("rack").expect("known topology"),
        RetryPolicy::from_label("hedge").expect("known policy"),
        shed,
    )
}

fn resilience_outcome_digest(out: &FleetOutcome) -> Digest {
    let mut d = Digest::new();
    for w in &out.windows {
        for v in [
            w.start_tick,
            w.ticks,
            w.offered,
            w.issued,
            w.goodput,
            w.shed,
        ] {
            d.word(v);
        }
        d.hist(&w.hist);
    }
    d.hist(&out.latency);
    let t = &out.totals;
    for v in [
        t.offered,
        t.issued,
        t.retries,
        t.hedges,
        t.admitted,
        t.admitted_useful,
        t.shed,
        t.overflow,
        t.blackholed,
        t.unreachable,
        t.hedge_dropped,
        t.perm_failed,
        t.served,
        t.goodput,
        t.waste_served,
        t.failed_inflight,
        t.lost_waste,
        t.inflight_end,
        t.probes,
        t.ejections,
        t.readmissions,
        t.shed_server_ticks,
        t.pending_retries_end,
        out.domain_faults.0,
        out.domain_faults.1,
        u64::from(out.recovered),
        out.ttr_ticks,
    ] {
        d.word(v);
    }
    if let Some(st) = out.storm {
        for v in [
            st.start_tick,
            st.end_tick,
            st.offered,
            st.issued,
            st.goodput,
            st.capacity,
        ] {
            d.word(v);
        }
    }
    d
}

/// `(name, plain configuration, digest)`.
fn plain_golden() -> Vec<(String, SimParams, u64)> {
    let mut cases = Vec::new();
    for (policy, seed, want) in [
        (Policy::Drain, 42, 0x0591_1f66_1b45_47d9u64),
        (Policy::Drain, 7, 0xbceb_1b4a_8e15_d2eb),
        (Policy::Derate, 42, 0xde97_9694_7517_222b),
        (Policy::Derate, 7, 0x2ed3_6f12_5289_cb7f),
    ] {
        cases.push((
            format!("quick-16-{}-s{seed}", policy.label()),
            SimParams::quick(16, 5_000, policy, seed),
            want,
        ));
    }
    cases.push((
        "overloaded-16-derate".to_owned(),
        SimParams {
            peak_util: 1.2,
            ..SimParams::quick(16, 5_000, Policy::Derate, 42)
        },
        0xd592_19f9_2cb6_00df,
    ));
    cases.push((
        "one-server-drain".to_owned(),
        SimParams {
            mtbf_ticks: 600,
            mttr_ticks: 300,
            ..SimParams::quick(1, 5_000, Policy::Drain, 42)
        },
        0xae4c_ba66_7804_2c13,
    ));
    for (qps, want) in LOW_CAPACITIES
        .into_iter()
        .zip([0x412b_bff7_709f_d0b9u64, 0xb075_04f0_7ce4_09d7])
    {
        cases.push((
            format!("quick-16-derate-{qps}qps"),
            SimParams::quick(16, qps, Policy::Derate, 42),
            want,
        ));
    }
    cases
}

/// `(name, resilience cell, digest)`: the 24-cell ambient grid at 16
/// servers, then the storm pair at 16 and at 64 servers.
fn resilience_golden() -> Vec<(String, ResiliencePointSpec, u64)> {
    let want: [u64; 28] = [
        0x134b_d07e_01b9_8e07,
        0x99ac_bac4_b7e3_f1ea,
        0x4b4c_f071_b799_64ac,
        0x4d43_4543_d110_7d62,
        0x4485_dcb3_6076_cc82,
        0x9c2a_7fd0_1c80_7ab8,
        0x5070_775f_9c1b_3932,
        0xf3ca_3b44_14a3_1343,
        0x067a_4538_8ddc_31bb,
        0xc02b_660e_3fdd_6c3a,
        0xa121_26ad_29f6_5038,
        0x85c8_e709_0505_ddc2,
        0xca25_35b0_9fbc_a312,
        0x2673_ddcb_0e78_a970,
        0xb140_4cb8_f1a7_95be,
        0x5621_057e_bc82_842b,
        0xca8a_177b_ca21_f597,
        0xf899_b16f_a340_36f2,
        0xb7ed_c6fc_2ca0_366c,
        0x6f93_1fe3_f204_7242,
        0x8055_7a46_e948_ea8a,
        0x04ac_3db4_2001_9eb0,
        0x45e9_e479_00f8_2a62,
        0x24ea_4b98_1df1_1f6b,
        // The storm pair: 16 servers, then 64.
        0x78a0_43d2_2891_6efc,
        0xf2bd_ed7a_7cca_1155,
        0x48f1_8a10_fee3_7d50,
        0x2595_75f5_3755_5a3d,
    ];
    let mut specs = resilience_grid(16, 42, true, Some("scaleout-ooo"), None, None, None);
    specs.extend(storm_pair("scaleout-ooo", 16, 42, true));
    specs.extend(storm_pair("scaleout-ooo", 64, 42, true));
    assert_eq!(specs.len(), want.len(), "one digest per cell");
    specs
        .into_iter()
        .zip(want)
        .map(|(spec, want)| (spec.name(), spec, want))
        .collect()
}

#[test]
fn plain_fleet_outcomes_match_their_golden_digests() {
    let mut wrong = Vec::new();
    for (name, params, want) in plain_golden() {
        let got = plain_digest(&params);
        if got != want {
            wrong.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "digest mismatches:\n{}", wrong.join("\n"));
}

#[test]
fn plain_fleet_report_rows_match_their_golden_digests() {
    let mut wrong = Vec::new();
    for (policy, want) in [
        (Policy::Drain, 0x6581_0319_3e0a_b618u64),
        (Policy::Derate, 0x003b_bf6c_055c_1ec1),
    ] {
        let spec = FleetPointSpec {
            series: true,
            ..FleetPointSpec::new("scaleout-ooo", policy, 16, 42, true)
        };
        let mut d = Digest::new();
        d.bytes(spec.evaluate().to_compact_string().as_bytes());
        if d.0 != want {
            wrong.push(format!(
                "{}: got {:#018x}, want {want:#018x}",
                spec.name(),
                d.0
            ));
        }
    }
    assert!(wrong.is_empty(), "digest mismatches:\n{}", wrong.join("\n"));
}

#[test]
fn resilience_outcomes_match_their_golden_digests() {
    let mut wrong = Vec::new();
    for (name, spec, want) in resilience_golden() {
        let got = resilience_digest(&spec);
        if got != want {
            wrong.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "digest mismatches:\n{}", wrong.join("\n"));
}

#[test]
fn low_capacity_resilience_outcomes_match_their_golden_digests() {
    let mut wrong = Vec::new();
    // `(capacity, shed, digest)`.
    for (qps, shed, want) in [
        (600, false, 0xd483_5b12_b4df_578au64),
        (600, true, 0xcb16_a7ad_502a_5b37),
        (20, false, 0x6168_2e93_d855_ef05),
        (20, true, 0x73e8_0f8a_f05c_fbc0),
    ] {
        let out = simulate_resilience(&low_capacity_resilience(qps, shed));
        let got = resilience_outcome_digest(&out).0;
        if got != want {
            wrong.push(format!(
                "{qps} qps shed={shed}: got {got:#018x}, want {want:#018x}"
            ));
        }
    }
    assert!(wrong.is_empty(), "digest mismatches:\n{}", wrong.join("\n"));
}

#[test]
fn the_pinned_configurations_reach_the_paths_they_cover() {
    let golden = plain_golden();
    let run = |name: &str| {
        let (_, params, _) = golden.iter().find(|(n, _, _)| n == name).expect(name);
        simulate(params)
    };
    // Admission overflows at 120% of nominal capacity.
    assert!(run("overloaded-16-derate").dropped() > 0);
    // A drained one-server fleet has nowhere to route: at 90% of its
    // capacity nothing else could drop a request.
    let lone = run("one-server-drain");
    assert!(lone.faults_struck > 0);
    assert!(lone.dropped() > 0);
    // The 16-server storm takes the whole fleet; the 64-server storm
    // leaves half of it to black-hole traffic until ejection.
    let storm16 = simulate_resilience(&storm_pair("scaleout-ooo", 16, 42, true)[0].params());
    assert!(storm16.totals.unreachable > 0);
    let storm64 = simulate_resilience(&storm_pair("scaleout-ooo", 64, 42, true)[0].params());
    assert!(storm64.totals.blackholed > 0);
    assert_eq!(storm64.totals.unreachable, 0);
    // The low-capacity fleets admit; their unshedded resilience cells
    // hedge and their shedding ones shed.
    for qps in LOW_CAPACITIES {
        let plain = run(&format!("quick-16-derate-{qps}qps"));
        assert!(plain.latency.count() > 0, "{qps} qps");
        let hedging = simulate_resilience(&low_capacity_resilience(qps, false)).totals;
        assert!(hedging.hedges > 0, "{qps} qps: {hedging:?}");
        let shedding = simulate_resilience(&low_capacity_resilience(qps, true)).totals;
        assert!(shedding.shed > 0, "{qps} qps: {shedding:?}");
    }
}
