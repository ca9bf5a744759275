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

/// Prints Table 5.1 (server chip characteristics including price).
pub fn print_tab5_1() {
    println!("Table 5.1 — server chip characteristics (40nm)");
    println!(
        "  {:22} {:>5} {:>6} {:>4} {:>7} {:>7} {:>7}",
        "chip", "cores", "LLC", "MC", "power", "die", "price"
    );
    for d in DesignKind::table_5_1() {
        let c = reference_chip(d, CHAPTER5_NODE);
        let price = market_price_usd(d, c.die_mm2);
        println!(
            "  {:22} {:>5} {:>6.1} {:>4} {:>6.1}W {:>6.1} {:>6.0}$",
            c.label, c.cores, c.llc_mb, c.memory_channels, c.power_w, c.die_mm2, price
        );
    }
}

/// Prints Table 5.2's parameters.
pub fn print_tab5_2() {
    let p = TcoParams::thesis();
    println!("Table 5.2 — TCO parameters");
    println!(
        "  infrastructure        {:.0} $/m2",
        p.infrastructure_usd_per_m2
    );
    println!("  cooling+power equip.  {:.1} $/W", p.equipment_usd_per_w);
    println!("  SPUE / PUE            {} / {}", p.spue, p.pue);
    println!(
        "  personnel             {:.0} $/rack/month",
        p.personnel_usd_per_rack_month
    );
    println!(
        "  network gear          {:.0}W, {:.0}$ per rack",
        p.network_w_per_rack, p.network_usd_per_rack
    );
    println!(
        "  motherboard           {:.0}W, {:.0}$ per 1U",
        p.motherboard_w, p.motherboard_usd
    );
    println!(
        "  disk                  {:.0}W, {:.0}$, {:.0}y MTTF",
        p.disk_w, p.disk_usd, p.disk_mttf_years
    );
    println!(
        "  DRAM                  {:.0}W, {:.0}$, {:.0}y MTTF per GB",
        p.dram_w_per_gb, p.dram_usd_per_gb, p.dram_mttf_years
    );
    println!("  electricity           {} $/kWh", p.usd_per_kwh);
    println!(
        "  facility              {:.0}MW, {:.0}kW racks, {} 1U/rack",
        p.datacenter_power_w / 1e6,
        p.rack_power_w / 1e3,
        p.servers_per_rack
    );
}

/// Prints Fig 5.1: datacenter performance normalised to conventional.
pub fn print_fig5_1() {
    println!("Fig 5.1 — datacenter performance normalised to conventional (64GB/1U)");
    let dcs = datacenters(64);
    let base = dcs[0].performance;
    for dc in &dcs {
        println!(
            "  {:22} {:>6.2}x  ({} sockets/1U)",
            dc.chip.label,
            dc.performance / base,
            dc.sockets_per_server
        );
    }
}

/// Prints Fig 5.2: datacenter TCO normalised to conventional.
pub fn print_fig5_2() {
    println!("Fig 5.2 — datacenter TCO normalised to conventional (64GB/1U)");
    let dcs = datacenters(64);
    let base = dcs[0].tco.total_usd();
    for dc in &dcs {
        println!("  {:22} {:>6.3}x", dc.chip.label, dc.tco.total_usd() / base);
    }
}

/// Prints Fig 5.3 (perf/TCO) and Fig 5.4 (perf/Watt) across memory sizes.
pub fn print_fig5_3_and_5_4() {
    println!("Fig 5.3 — performance/TCO and Fig 5.4 — performance/Watt");
    println!(
        "  {:22} {:>23} | {:>23}",
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
        println!(
            "  {:22} {} | {}",
            sweep[0][i].chip.label,
            tco.join(""),
            watt.join("")
        );
    }
    let conv = &sweep[1][0];
    let sop_io = sweep[1].last().expect("non-empty roster");
    println!(
        "  headline: Scale-Out (IO) vs conventional perf/TCO = {:.1}x (thesis: 7.1x)",
        sop_io.perf_per_tco() / conv.perf_per_tco()
    );
}

/// Fig 5.5: perf/TCO as the processor price varies with production volume.
pub fn print_fig5_5() {
    println!("Fig 5.5 — perf/TCO vs processor price (volume 40K..1M units)");
    let params = TcoParams::thesis();
    for d in DesignKind::table_5_1() {
        if d == DesignKind::Conventional {
            // Market-priced; a volume curve does not apply.
            let dc = Datacenter::for_design(d, &params, 64);
            println!(
                "  {:22} market ${:>4.0} -> {:.3}",
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
        println!("  {:22} {}", chip.label, pts.join("  "));
    }
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
