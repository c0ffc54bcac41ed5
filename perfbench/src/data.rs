//! Workload inputs, generated from the benchmark seed.
//!
//! Every workload uses QUEST T5.I3.N500 units from the `car_bench` base
//! scenario: 1000 transactions per unit and 20 planted cyclic patterns.
//! The program under test only ever sees the rendered HTTP bodies (or,
//! for `batch`, the rendered text database).
//!
//! The QUEST generator runs with the base scenario's own seed, and its
//! 64 units are the paper's base database. `batch` mines it; every
//! server's window is filled with it at set-up, and after that a run
//! keeps posting its units in order, cyclically, so the window always
//! holds the whole database. The benchmark seed drives the request mix.
//! It does not seed the generator: generator seeds draw different pools
//! of potentially large itemsets, and at 1.5% support one pool costs up
//! to four times another to mine, which would turn every cross-seed
//! comparison into a comparison of databases.

use std::fmt::Write;

use car_bench::{base_cyclic_config, ScenarioParams};
use car_datagen::generate_cyclic;
use car_itemset::ItemSet;

/// Units of the base database.
pub const BASE_UNITS: usize = 64;

/// The base database's units and their `POST /v1/units` bodies.
pub struct Pool {
    pub units: Vec<Vec<ItemSet>>,
    pub bodies: Vec<Vec<u8>>,
}

impl Pool {
    pub fn generate() -> Pool {
        let units = base_units();
        let bodies = units.iter().map(|u| unit_body(u).into_bytes()).collect();
        Pool { units, bodies }
    }

    /// The unit a run posts at position `i`: the database in order,
    /// cyclically.
    pub fn index(&self, i: usize) -> usize {
        i % BASE_UNITS
    }
}

/// The paper's base database: the base scenario's 64 units.
pub fn base_units() -> Vec<Vec<ItemSet>> {
    let params = ScenarioParams::default();
    let data = generate_cyclic(&base_cyclic_config(&params), params.seed);
    (0..params.units).map(|i| data.db.unit(i).to_vec()).collect()
}

/// `{"transactions":[[id,...],...]}`.
pub fn unit_body(unit: &[ItemSet]) -> String {
    let mut out = String::from("{\"transactions\":[");
    for (t, tx) in unit.iter().enumerate() {
        if t > 0 {
            out.push(',');
        }
        out.push('[');
        for (k, item) in tx.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", item.id());
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// The `car mine` text format: one `unit | item item ...` line per
/// transaction.
pub fn text_database(units: &[Vec<ItemSet>]) -> String {
    let mut out = String::new();
    for (u, unit) in units.iter().enumerate() {
        for tx in unit {
            let _ = write!(out, "{u} |");
            for item in tx.iter() {
                let _ = write!(out, " {}", item.id());
            }
            out.push('\n');
        }
    }
    out
}

/// A small deterministic generator for the load mix (splitmix64).
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed ^ 0x005E_ED0F_BE4C)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}
