//! Prefetch accuracy and coverage of one tenant's prediction stream.
//!
//! A prediction emitted while the table processed observation `t` is
//! *useful* if the tenant misses on that line at one of the next
//! `window` observations, `t+1 ..= t+window`. A miss at observation `j`
//! is *covered* if some prediction of that line was emitted at one of the
//! `window` observations before it, `j-window ..= j-1`.

use ulmt_simcore::{FxHashMap, LineAddr};

/// Observations a prediction may lead the miss it serves by.
pub const WINDOW: usize = 64;

/// Counts behind accuracy (`useful / predicted`) and coverage
/// (`covered / misses`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    pub predicted: u64,
    pub useful: u64,
    pub misses: u64,
    pub covered: u64,
}

impl Score {
    pub fn add(&mut self, other: Score) {
        self.predicted += other.predicted;
        self.useful += other.useful;
        self.misses += other.misses;
        self.covered += other.covered;
    }

    pub fn accuracy(&self) -> f64 {
        self.useful as f64 / self.predicted.max(1) as f64
    }

    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.misses.max(1) as f64
    }
}

/// Scores the predictions `lines`, emitted at observation indices `pos`
/// (in emission order), against the miss stream `obs`. One pass each way
/// with hash maps: linear in the stream and prediction lengths.
pub fn score(obs: &[LineAddr], pos: &[u32], lines: &[LineAddr], window: usize) -> Score {
    let mut s = Score {
        predicted: lines.len() as u64,
        misses: obs.len() as u64,
        ..Score::default()
    };
    // Coverage: the latest earlier prediction of a line is the closest.
    let mut last_pred: FxHashMap<LineAddr, usize> = FxHashMap::default();
    let mut p = 0;
    for (j, line) in obs.iter().enumerate() {
        if last_pred.get(line).is_some_and(|&t| t + window >= j) {
            s.covered += 1;
        }
        while p < pos.len() && pos[p] as usize == j {
            last_pred.insert(lines[p], j);
            p += 1;
        }
    }
    // Accuracy: sweep backwards so the next occurrence of a line is known.
    let mut next_occ: FxHashMap<LineAddr, usize> = FxHashMap::default();
    let mut p = pos.len();
    for t in (0..obs.len()).rev() {
        while p > 0 && pos[p - 1] as usize == t {
            p -= 1;
            if next_occ.get(&lines[p]).is_some_and(|&j| j <= t + window) {
                s.useful += 1;
            }
        }
        next_occ.insert(obs[t], t);
    }
    s
}
