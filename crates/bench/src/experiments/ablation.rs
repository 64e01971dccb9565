//! Ablation sweeps over the design choices DESIGN.md calls out.
//!
//! These reproduce the paper's side experiments and design discussion:
//!
//! * **QLU sweep** — §4.3: "Experiments were also conducted with QLU 1,
//!   but since performance was uniformly better with QLU 8 … the results
//!   have been omitted." Here they are.
//! * **Queue-depth sweep** — §2/Figure 3: enough buffering is what turns
//!   transit delay from critical into irrelevant.
//! * **Register-mapped queues** — §3.1.3: free communication operations,
//!   at the cost of spill/fill code once register pressure bites.
//! * **Centralized vs distributed dedicated store** — §3.5.2: a single
//!   shared structure is farther away, raising consume-to-use latency.
//! * **OzQ size** — footnote 1 / §4.4: the ordered transaction queue is
//!   where software-queue designs drown.
//! * **L2 ports** — SYNCOPTI leans on L2 bandwidth.
//! * **Arbiter priority** — §4.2: favoring application memory requests
//!   should not degrade the application, while pipelined streaming
//!   tolerates the extra arbitration delay.
//!
//! Each sweep is one row of data: benchmarks down, machines across.

use hfs_core::{DesignPoint, MachineConfig};
use hfs_workloads::benchmark;

use crate::experiments::grid;
use crate::runner::pipeline_job;
use crate::table::{f2, TextTable};

/// One ablation sweep.
struct Sweep {
    batch: &'static str,
    title: &'static str,
    headers: &'static [&'static str],
    benches: &'static [&'static str],
    /// One machine per column: a design point, its configuration tweaked.
    cols: Vec<MachineConfig>,
    /// A benchmark's table cells from its per-column cycle counts.
    cells: fn(&[u64]) -> Vec<String>,
}

fn cycles(cs: &[u64]) -> Vec<String> {
    cs.iter().map(u64::to_string).collect()
}

fn normalized(cs: &[u64]) -> Vec<String> {
    cs.iter().map(|&c| f2(c as f64 / cs[0] as f64)).collect()
}

fn fair_favor_delta(cs: &[u64]) -> Vec<String> {
    let (fair, fav) = (cs[0], cs[1]);
    vec![
        fair.to_string(),
        fav.to_string(),
        format!("{:+.1}%", (fav as f64 / fair as f64 - 1.0) * 100.0),
    ]
}

fn baseline(design: DesignPoint) -> MachineConfig {
    MachineConfig::itanium2_cmp(design)
}

/// HEAVYWT, then `rest`: the columns of a sweep normalized to HEAVYWT.
fn after_heavywt<const N: usize>(rest: [MachineConfig; N]) -> Vec<MachineConfig> {
    std::iter::once(baseline(DesignPoint::heavywt()))
        .chain(rest)
        .collect()
}

/// The seven sweeps, in rendering order.
fn sweeps() -> [Sweep; 7] {
    [
        Sweep {
            batch: "ablation_qlu",
            title: "Ablation: queue layout unit for software queues (cycles, lower is better)",
            headers: &["bench", "QLU1", "QLU2", "QLU4", "QLU8"],
            benches: &["wc", "adpcmdec", "fir"],
            cols: [1, 2, 4, 8]
                .map(|qlu| baseline(DesignPoint::existing_with_qlu(qlu)))
                .into(),
            cells: cycles,
        },
        // bzip2 is excluded below depth 32: its outer-gated consumer
        // requires the inner queue to hold a whole nest, so shallower
        // queues deadlock by construction (caught by the machine's
        // detector).
        Sweep {
            batch: "ablation_depth",
            title: "Ablation: HEAVYWT queue depth (cycles)",
            headers: &["bench", "d=4", "d=8", "d=16", "d=32", "d=64"],
            benches: &["fir", "wc"],
            cols: [4, 8, 16, 32, 64]
                .map(|d| baseline(DesignPoint::heavywt_with(1, d)))
                .into(),
            cells: cycles,
        },
        Sweep {
            batch: "ablation_regmapped",
            title: "Ablation: register-mapped queues vs HEAVYWT (normalized to HEAVYWT)",
            headers: &["bench", "HEAVYWT", "spill0", "spill2", "spill4", "spill8"],
            benches: &["wc", "adpcmdec"],
            cols: after_heavywt([0, 2, 4, 8].map(|s| baseline(DesignPoint::regmapped(s)))),
            cells: normalized,
        },
        // The access latency of the backing store is the consume-to-use
        // delay.
        Sweep {
            batch: "ablation_store",
            title: "Ablation: dedicated-store placement (consume-to-use latency; normalized)",
            headers: &[
                "bench",
                "distributed (1cy)",
                "central 3cy",
                "central 6cy",
                "central 12cy",
            ],
            benches: &["wc", "fir"],
            cols: after_heavywt([3, 6, 12].map(|l| baseline(DesignPoint::heavywt_centralized(l)))),
            cells: normalized,
        },
        Sweep {
            batch: "ablation_ozq",
            title: "Ablation: OzQ entries under EXISTING (cycles)",
            headers: &["bench", "ozq=4", "ozq=8", "ozq=16", "ozq=32"],
            benches: &["adpcmdec", "mcf"],
            cols: [4, 8, 16, 32]
                .map(|entries| {
                    let mut cfg = baseline(DesignPoint::existing());
                    cfg.mem.ozq_entries = entries;
                    cfg
                })
                .into(),
            cells: cycles,
        },
        Sweep {
            batch: "ablation_l2ports",
            title: "Ablation: L2 ports under SYNCOPTI (cycles)",
            headers: &["bench", "1 port", "2 ports", "4 ports"],
            benches: &["wc", "epicdec"],
            cols: [1, 2, 4]
                .map(|ports| {
                    let mut cfg = baseline(DesignPoint::syncopti_sc_q64());
                    cfg.mem.l2_ports = ports;
                    cfg
                })
                .into(),
            cells: cycles,
        },
        // Contention only matters on the §4.5 slow bus, where line
        // transfers take 32 CPU cycles and requests back up.
        Sweep {
            batch: "ablation_arbiter",
            title: "Ablation: bus arbiter favoring application traffic (cycles)",
            headers: &["bench", "fair arbiter", "favor app", "delta"],
            benches: &["mcf", "equake", "wc"],
            cols: [false, true]
                .map(|favor| {
                    let mut cfg = baseline(DesignPoint::syncopti_sc_q64()).with_bus_divider(4);
                    cfg.mem.bus.favor_app_traffic = favor;
                    cfg
                })
                .into(),
            cells: fair_favor_delta,
        },
    ]
}

impl Sweep {
    fn run(&self) -> TextTable {
        let mut t = TextTable::new(self.title, self.headers);
        let rows = grid(self.batch, self.benches, &self.cols, |name, cfg| {
            let b = benchmark(name).expect("known benchmark");
            pipeline_job(self.batch, &b, cfg.clone())
        });
        for (name, runs) in rows {
            let cycles: Vec<u64> = runs.iter().map(|r| r.cycles).collect();
            let mut row = vec![name.to_string()];
            row.extend((self.cells)(&cycles));
            t.row(row);
        }
        t
    }
}

/// Renders every ablation.
pub fn run_all() -> String {
    sweeps()
        .iter()
        .map(|sweep| sweep.run().render() + "\n")
        .collect()
}
