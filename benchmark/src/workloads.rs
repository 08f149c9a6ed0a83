//! The six workloads: fixed shapes and op counts, never auto-calibrated.
//!
//! `why` is repeated in BENCHMARK.json; README.md has the long form and the
//! table of which layer metric should move which end-to-end metric.

use switchfs::core::SystemKind;
use switchfs::workloads::{OpKind, OpMix};

use OpKind::{Close, Create, Delete, Open, Readdir, Stat, Statdir};

/// Where a workload's op classes come from.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    Fixed(&'static [(OpKind, f64)]),
    /// `OpMix::datacenter_services()`: the paper's Tab. 5 synthetic mix.
    Datacenter,
}

impl Mix {
    pub fn weights(&self) -> Vec<(OpKind, f64)> {
        match self {
            Mix::Fixed(w) => w.to_vec(),
            Mix::Datacenter => OpMix::datacenter_services().weights,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub system: SystemKind,
    pub clients: usize,
    pub in_flight: usize,
    pub dirs: usize,
    /// Files preloaded into each directory before the timed phase.
    pub files_per_dir: usize,
    /// Send 80 % of the reads to the first 20 % of the directories (creates,
    /// deletes and renames always go to directory 0; see `gen`).
    pub skew: bool,
    /// Ops per repetition.
    pub ops: usize,
    pub mix: Mix,
}

pub const ALL: [Spec; 6] = [
    Spec {
        name: "hotdir-create",
        system: SystemKind::SwitchFs,
        clients: 4,
        in_flight: 256,
        dirs: 1,
        files_per_dir: 0,
        skew: false,
        ops: 22_000,
        mix: Mix::Fixed(&[(Create, 1.0)]),
    },
    Spec {
        name: "hotdir-create-cfs",
        system: SystemKind::EmulatedCfs,
        clients: 4,
        in_flight: 64,
        dirs: 1,
        files_per_dir: 0,
        skew: false,
        ops: 14_000,
        mix: Mix::Fixed(&[(Create, 1.0)]),
    },
    Spec {
        name: "dirread-mix",
        system: SystemKind::SwitchFs,
        clients: 4,
        in_flight: 64,
        dirs: 64,
        files_per_dir: 64,
        skew: true,
        ops: 30_000,
        mix: Mix::Fixed(&[
            (Create, 45.0),
            (Delete, 25.0),
            (Statdir, 15.0),
            (Readdir, 15.0),
        ]),
    },
    Spec {
        name: "lookup-stat",
        system: SystemKind::SwitchFs,
        clients: 4,
        in_flight: 256,
        dirs: 64,
        files_per_dir: 2_000,
        skew: false,
        ops: 80_000,
        mix: Mix::Fixed(&[(Stat, 40.0), (Open, 30.0), (Close, 30.0)]),
    },
    Spec {
        name: "dc-mix",
        system: SystemKind::SwitchFs,
        clients: 4,
        in_flight: 256,
        dirs: 64,
        files_per_dir: 500,
        skew: true,
        ops: 22_000,
        mix: Mix::Datacenter,
    },
    Spec {
        name: "solo-latency",
        system: SystemKind::SwitchFs,
        clients: 1,
        in_flight: 1,
        dirs: 16,
        files_per_dir: 64,
        skew: false,
        ops: 50_000,
        mix: Mix::Fixed(&[
            (Create, 25.0),
            (Delete, 15.0),
            (Stat, 30.0),
            (Open, 10.0),
            (Statdir, 15.0),
            (Readdir, 5.0),
        ]),
    },
];

pub fn by_name(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}
