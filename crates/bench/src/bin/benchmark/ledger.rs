//! The recorded ledger (`ledger/seed42.json`, `ledger/seed7.json`) as the
//! reference that holds everything simulated exactly equal from commit to
//! commit. `BENCHMARK.json`'s bounds cannot do that: the driver's seeds move
//! two workloads' inputs, so the `sim_*` bounds are wide. Instead every
//! untraced run replays the inputs of [`REPLAY_SEED`] once and fails unless
//! each `sim_*` equals the recorded number. A change to the modelled machine
//! therefore has to re-record the ledger (README.md, "Ledger at HEAD"), which
//! shows in its diff; a simulator-speed change cannot pass with another number.

use crate::run::Sim;

/// The seed whose recorded inputs every run replays.
pub const REPLAY_SEED: u64 = 42;

const RECORDED: [(u64, &str); 2] = [
    (42, include_str!("ledger/seed42.json")),
    (7, include_str!("ledger/seed7.json")),
];

/// The unsigned integer after `"<metric>": {"value": ` in `row`.
fn recorded_value(row: &str, metric: &str) -> Option<u64> {
    let key = format!("\"{metric}\": {{\"value\": ");
    let rest = &row[row.find(&key)? + key.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// `workload`'s `sim_*` as recorded in `ledger` (one row a line, as the
/// all-workloads run writes it), or `None` if the row or a number is missing.
fn sim_in(ledger: &str, workload: &str) -> Option<Sim> {
    let name = format!("{{\"name\": \"{workload}\",");
    let row = ledger.lines().find(|l| l.trim_start().starts_with(&name))?;
    let row = row.split("\"per_layer\"").next()?;
    Some(Sim {
        time_ps: recorded_value(row, "sim_time_ticks")?,
        region_ps: recorded_value(row, "sim_region_ticks")?,
        region_dram: recorded_value(row, "sim_region_dram")?,
        instructions: recorded_value(row, "sim_instructions")?,
        events: recorded_value(row, "sim_events")?,
        noc_bytes: recorded_value(row, "sim_noc_bytes")?,
    })
}

/// What the ledger recorded for `workload` at `seed` (42 or 7); `None` for a
/// seed that has no ledger.
///
/// # Panics
///
/// Panics when a committed ledger lacks the workload: the file was edited by
/// hand or recorded by another set of workloads.
pub fn recorded(seed: u64, workload: &str) -> Option<Sim> {
    let (_, text) = RECORDED.iter().find(|(s, _)| *s == seed)?;
    Some(
        sim_in(text, workload)
            .unwrap_or_else(|| panic!("ledger/seed{seed}.json has no sim_* for {workload}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn rows_are_read_by_workload_and_metric() {
        let text = "{\n  \"workloads\": [\n    {\"name\": \"a\", \"end_to_end\": {\"run_wall_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
                    \"sim_time_ticks\": {\"value\": 10, \"unit\": \"ticks\"}, \"sim_region_ticks\": {\"value\": 9, \"unit\": \"ticks\"}, \
                    \"sim_region_dram\": {\"value\": 8, \"unit\": \"count\"}, \"sim_instructions\": {\"value\": 7, \"unit\": \"count\"}, \
                    \"sim_events\": {\"value\": 6, \"unit\": \"count\"}, \"sim_noc_bytes\": {\"value\": 5, \"unit\": \"B\"}}, \
                    \"per_layer\": {\"sim_events\": {\"value\": 99, \"unit\": \"count\"}}},\n    \
                    {\"name\": \"ab\", \"end_to_end\": {\"sim_time_ticks\": {\"value\": 11, \"unit\": \"ticks\"}}}\n  ]\n}\n";
        let a = Sim {
            time_ps: 10,
            region_ps: 9,
            region_dram: 8,
            instructions: 7,
            events: 6,
            noc_bytes: 5,
        };
        assert_eq!(sim_in(text, "a"), Some(a));
        assert_eq!(sim_in(text, "ab"), None, "a row lacks a sim_*");
        assert_eq!(sim_in(text, "b"), None);
    }

    #[test]
    fn committed_ledgers_record_every_workload() {
        for (seed, _) in RECORDED {
            for w in &WORKLOADS {
                let sim = recorded(seed, w.name).unwrap();
                assert!(
                    sim.region_ps > 0 && sim.region_ps < sim.time_ps,
                    "{seed} {}",
                    w.name
                );
            }
        }
        assert!(recorded(REPLAY_SEED, "matmul_cpu").is_some());
        assert_eq!(recorded(3, "matmul_cpu"), None);
        assert_eq!(
            recorded(42, "matmul_mttop"),
            recorded(42, "matmul_epochs"),
            "the epoch executor simulates what the serial loop does"
        );
    }
}
