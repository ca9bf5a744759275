//! Chapter 5: Scale-Out Processors at datacenter scale (Tables 5.1/5.2,
//! Figs 5.1–5.5).

use sop_core::designs::{reference_chip, DesignKind};
use sop_tco::{estimated_price_usd, market_price_usd, Datacenter, TcoParams, CHAPTER5_NODE};

/// The memory capacities per 1U server swept in Figs 5.3/5.4.
pub const MEMORY_SWEEP_GB: [u32; 3] = [32, 64, 128];

/// Builds the datacenter for every Table 5.1 design at `memory_gb`.
pub fn datacenters(memory_gb: u32) -> Vec<Datacenter> {
    let params = TcoParams::thesis();
    DesignKind::table_5_1()
        .into_iter()
        .map(|d| Datacenter::for_design(d, &params, memory_gb))
        .collect()
}

/// Table 5.1 (server chip characteristics including price) as text.
pub fn tab5_1_text() -> String {
    let mut out = String::from("Table 5.1 — server chip characteristics (40nm)\n");
    out += &format!(
        "  {:22} {:>5} {:>6} {:>4} {:>7} {:>7} {:>7}\n",
        "chip", "cores", "LLC", "MC", "power", "die", "price"
    );
    for d in DesignKind::table_5_1() {
        let c = reference_chip(d, CHAPTER5_NODE);
        let price = market_price_usd(d, c.die_mm2);
        out += &format!(
            "  {:22} {:>5} {:>6.1} {:>4} {:>6.1}W {:>6.1} {:>6.0}$\n",
            c.label, c.cores, c.llc_mb, c.memory_channels, c.power_w, c.die_mm2, price
        );
    }
    out
}

/// Table 5.2's parameters as text.
pub fn tab5_2_text() -> String {
    let p = TcoParams::thesis();
    let mut out = String::from("Table 5.2 — TCO parameters\n");
    out += &format!(
        "  infrastructure        {:.0} $/m2\n",
        p.infrastructure_usd_per_m2
    );
    out += &format!("  cooling+power equip.  {:.1} $/W\n", p.equipment_usd_per_w);
    out += &format!("  SPUE / PUE            {} / {}\n", p.spue, p.pue);
    out += &format!(
        "  personnel             {:.0} $/rack/month\n",
        p.personnel_usd_per_rack_month
    );
    out += &format!(
        "  network gear          {:.0}W, {:.0}$ per rack\n",
        p.network_w_per_rack, p.network_usd_per_rack
    );
    out += &format!(
        "  motherboard           {:.0}W, {:.0}$ per 1U\n",
        p.motherboard_w, p.motherboard_usd
    );
    out += &format!(
        "  disk                  {:.0}W, {:.0}$, {:.0}y MTTF\n",
        p.disk_w, p.disk_usd, p.disk_mttf_years
    );
    out += &format!(
        "  DRAM                  {:.0}W, {:.0}$, {:.0}y MTTF per GB\n",
        p.dram_w_per_gb, p.dram_usd_per_gb, p.dram_mttf_years
    );
    out += &format!("  electricity           {} $/kWh\n", p.usd_per_kwh);
    out += &format!(
        "  facility              {:.0}MW, {:.0}kW racks, {} 1U/rack\n",
        p.datacenter_power_w / 1e6,
        p.rack_power_w / 1e3,
        p.servers_per_rack
    );
    out
}

/// Figs 5.1/5.2: each Table 5.1 chip's 64GB/1U datacenter with its
/// performance and TCO normalised to the conventional chip's (the
/// first row).
pub fn fig5_1_5_2() -> Vec<(Datacenter, f64, f64)> {
    let dcs = datacenters(64);
    let (perf, tco) = (dcs[0].performance, dcs[0].tco.total_usd());
    dcs.into_iter()
        .map(|dc| {
            let (perf_x, tco_x) = (dc.performance / perf, dc.tco.total_usd() / tco);
            (dc, perf_x, tco_x)
        })
        .collect()
}

/// Fig 5.1 (datacenter performance normalised to conventional) as text.
pub fn fig5_1_text() -> String {
    let mut out =
        String::from("Fig 5.1 — datacenter performance normalised to conventional (64GB/1U)\n");
    for (dc, perf, _) in fig5_1_5_2() {
        let (chip, sockets) = (&dc.chip.label, dc.sockets_per_server);
        out += &format!("  {chip:22} {perf:>6.2}x  ({sockets} sockets/1U)\n");
    }
    out
}

/// Fig 5.2 (datacenter TCO normalised to conventional) as text.
pub fn fig5_2_text() -> String {
    let mut out = String::from("Fig 5.2 — datacenter TCO normalised to conventional (64GB/1U)\n");
    for (dc, _, tco) in fig5_1_5_2() {
        out += &format!("  {:22} {tco:>6.3}x\n", dc.chip.label);
    }
    out
}

/// Fig 5.3 (perf/TCO) and Fig 5.4 (perf/Watt) across memory sizes as
/// text.
pub fn fig5_3_text() -> String {
    let mut out = String::from("Fig 5.3 — performance/TCO and Fig 5.4 — performance/Watt\n");
    out += &format!(
        "  {:22} {:>23} | {:>23}\n",
        "", "perf/TCO 32/64/128GB", "perf/W 32/64/128GB"
    );
    let sweep: Vec<Vec<Datacenter>> = MEMORY_SWEEP_GB.iter().map(|&gb| datacenters(gb)).collect();
    for i in 0..sweep[0].len() {
        let tco: Vec<String> = sweep
            .iter()
            .map(|dcs| format!("{:7.3}", dcs[i].perf_per_tco()))
            .collect();
        let watt: Vec<String> = sweep
            .iter()
            .map(|dcs| format!("{:7.4}", dcs[i].perf_per_watt()))
            .collect();
        out += &format!(
            "  {:22} {} | {}\n",
            sweep[0][i].chip.label,
            tco.join(""),
            watt.join("")
        );
    }
    let conv = &sweep[1][0];
    let sop_io = sweep[1].last().expect("non-empty roster");
    out += &format!(
        "  headline: Scale-Out (IO) vs conventional perf/TCO = {:.1}x (thesis: 7.1x)\n",
        sop_io.perf_per_tco() / conv.perf_per_tco()
    );
    out
}

/// Fig 5.5 as text: perf/TCO as the processor price varies with
/// production volume.
pub fn fig5_5_text() -> String {
    let mut out = String::from("Fig 5.5 — perf/TCO vs processor price (volume 40K..1M units)\n");
    let params = TcoParams::thesis();
    for d in DesignKind::table_5_1() {
        if d == DesignKind::Conventional {
            // Market-priced; a volume curve does not apply.
            let dc = Datacenter::for_design(d, &params, 64);
            out += &format!(
                "  {:22} market ${:>4.0} -> {:.3}\n",
                dc.chip.label,
                dc.chip_price_usd,
                dc.perf_per_tco()
            );
            continue;
        }
        let chip = reference_chip(d, CHAPTER5_NODE);
        let pts: Vec<String> = [40_000.0, 100_000.0, 200_000.0, 500_000.0, 1_000_000.0]
            .iter()
            .map(|&v| {
                let price = estimated_price_usd(chip.die_mm2, v);
                let dc = Datacenter::for_chip(chip.clone(), price, &params, 64);
                format!("${:.0}:{:.3}", price, dc.perf_per_tco())
            })
            .collect();
        out += &format!("  {:22} {}\n", chip.label, pts.join("  "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_seven_chips() {
        assert_eq!(datacenters(64).len(), 7);
    }

    #[test]
    fn scale_out_io_is_the_performance_leader() {
        let dcs = datacenters(64);
        let best = dcs
            .iter()
            .max_by(|a, b| a.performance.total_cmp(&b.performance))
            .expect("non-empty");
        assert!(
            best.chip.label.contains("Scale-Out (IO)"),
            "leader {}",
            best.chip.label
        );
    }

    #[test]
    fn cheaper_chips_improve_perf_per_tco() {
        // Fig 5.5: for a fixed design, lower price -> better perf/TCO.
        let params = TcoParams::thesis();
        let chip = reference_chip(
            DesignKind::ScaleOut(sop_tech::CoreKind::OutOfOrder),
            CHAPTER5_NODE,
        );
        let cheap = Datacenter::for_chip(chip.clone(), 200.0, &params, 64);
        let pricey = Datacenter::for_chip(chip, 800.0, &params, 64);
        assert!(cheap.perf_per_tco() > pricey.perf_per_tco());
    }
}
