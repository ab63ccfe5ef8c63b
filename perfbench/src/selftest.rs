//! Checks of the benchmark's own logic, run before every measurement and
//! under `cargo test`: the scorer against the literal definition, the
//! percentile helper on small and even samples, and open-loop timing
//! counted from each batch's due time.

use std::collections::HashMap;

use ulmt_simcore::{LineAddr, Pcg32};

use crate::inproc::Timeline;
use crate::score::{score, Score};
use crate::stats::{geomean, median, percentile};

pub fn run() -> Result<(), String> {
    scorer_matches_naive()?;
    percentiles()?;
    due_time_accounting()
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("self-test failed: {what}"))
    }
}

/// The scoring definition applied literally: scan every window of the
/// whole stream, with a map from emission index to predictions.
fn naive(obs: &[LineAddr], pos: &[u32], lines: &[LineAddr], window: usize) -> Score {
    let mut by_pos: HashMap<usize, Vec<LineAddr>> = HashMap::new();
    for (&t, &line) in pos.iter().zip(lines) {
        by_pos.entry(t as usize).or_default().push(line);
    }
    let useful = pos
        .iter()
        .zip(lines)
        .filter(|&(&t, &line)| {
            let t = t as usize;
            (t + 1..obs.len().min(t + window + 1)).any(|j| obs[j] == line)
        })
        .count();
    let covered = (0..obs.len())
        .filter(|&j| {
            (j.saturating_sub(window)..j)
                .any(|t| by_pos.get(&t).is_some_and(|v| v.contains(&obs[j])))
        })
        .count();
    Score {
        predicted: lines.len() as u64,
        useful: useful as u64,
        misses: obs.len() as u64,
        covered: covered as u64,
    }
}

fn scorer_matches_naive() -> Result<(), String> {
    let l = LineAddr::new;
    // Emitted at 0: line 3 is missed 2 later, line 4 3 later.
    let edge = score(
        &[l(1), l(2), l(3), l(4)],
        &[0, 0, 1],
        &[l(3), l(4), l(1)],
        2,
    );
    ensure((edge.useful, edge.covered) == (1, 1), "scorer window edges")?;
    let mut rng = Pcg32::seed_from_u64(11);
    for _ in 0..200 {
        let n = rng.gen_range_usize(0..300);
        let distinct = rng.gen_range_u64(1..40);
        let window = rng.gen_range_usize(1..20);
        let obs: Vec<LineAddr> = (0..n).map(|_| l(rng.gen_range_u64(0..distinct))).collect();
        let (mut pos, mut lines) = (Vec::new(), Vec::new());
        for t in 0..n {
            for _ in 0..rng.gen_range_usize(0..4) {
                pos.push(t as u32);
                lines.push(l(rng.gen_range_u64(0..distinct)));
            }
        }
        ensure(
            score(&obs, &pos, &lines, window) == naive(&obs, &pos, &lines, window),
            "scorer differs from the naive scorer",
        )?;
    }
    Ok(())
}

fn percentiles() -> Result<(), String> {
    ensure(percentile(&mut [], 50.0).is_none(), "percentile of nothing")?;
    ensure(percentile(&mut [7], 50.0) == Some(7), "p50 of one")?;
    ensure(percentile(&mut [7], 99.0) == Some(7), "p99 of one")?;
    // Even count: p50 is the lower middle sample (rank 2 of 4).
    ensure(
        percentile(&mut [40, 10, 30, 20], 50.0) == Some(20),
        "p50 of four",
    )?;
    ensure(
        percentile(&mut [40, 10, 30, 20], 99.0) == Some(40),
        "p99 of four",
    )?;
    let mut hundred: Vec<u64> = (1..=100).rev().collect();
    ensure(percentile(&mut hundred, 50.0) == Some(50), "p50 of 100")?;
    ensure(percentile(&mut hundred, 99.0) == Some(99), "p99 of 100")?;
    // 1000 samples: p99 leaves exactly ten above it.
    let mut thousand: Vec<u64> = (1..=1000).collect();
    ensure(percentile(&mut thousand, 99.0) == Some(990), "p99 of 1000")?;
    ensure(median(&[3.0, 1.0, 2.0]) == 2.0, "median of three")?;
    ensure(median(&[4.0, 1.0, 3.0, 2.0]) == 2.5, "median of four")?;
    ensure((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12, "geometric mean")
}

/// A synthetic schedule: batches due every 100 ns, served in 30 ns, and
/// a generator that stalls 450 ns at batch 3 and then catches up. The
/// stall must count against every batch it delayed, not just the first.
fn due_time_accounting() -> Result<(), String> {
    let mut free = 0;
    let mut sent_at = 0;
    let timelines: Vec<Timeline> = (0..8u64)
        .map(|k| {
            let due = 100 * k;
            sent_at = if k == 3 { due + 450 } else { due.max(sent_at) };
            let acked = sent_at.max(free) + 30;
            free = acked;
            Timeline {
                due,
                sent: sent_at,
                acked,
                refused: k == 7,
            }
        })
        .collect();
    let late: Vec<u64> = timelines.iter().map(Timeline::late).collect();
    let lat: Vec<u64> = timelines.iter().map(Timeline::latency).collect();
    ensure(
        late == [0, 0, 0, 450, 350, 250, 150, 50],
        "lateness from the due time",
    )?;
    ensure(
        lat == [30, 30, 30, 480, 410, 340, 270, 200],
        "latency from the due time",
    )?;
    let on_time = timelines.iter().filter(|t| t.on_time(300)).count();
    // Batches 3-5 miss 300 ns; batch 7 meets it but was refused.
    ensure(on_time == 4, "on-time count with a refused batch")
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_tests_pass() {
        super::run().unwrap();
    }
}
