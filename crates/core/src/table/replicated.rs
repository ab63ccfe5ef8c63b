//! The Replicated correlation algorithm (Figure 4-(c)) — the paper's new
//! table organization.
//!
//! Each row stores the miss tag plus `NumLevels` *levels* of successors,
//! each level an independent `NumSucc`-entry MRU list. The algorithm keeps
//! `NumLevels` pointers to the rows of the last few misses; learning
//! inserts the new miss at the correct level of each pointed-to row
//! *without any associative search*, and prefetching needs a **single**
//! row access to emit true-MRU successors for every level.
//!
//! This resolves both problems of [`Chain`](super::Chain): prefetches are
//! accurate (true MRU per level, whatever path produced them) and the
//! response time is low (one search, one row, often one cache line).

use std::collections::VecDeque;

use ulmt_simcore::{LineAddr, PageAddr};

use crate::algorithm::{insn_cost, StepSink, UlmtAlgorithm};
use crate::cost::StepResult;

use super::snapshot::{fingerprint_bytes, RowSnapshot, SnapshotError, SnapshotKind, TableSnapshot};
use super::storage::{RowPtr, RowTable, TableStats};
use super::TableParams;

/// The Replicated multi-level correlation prefetcher.
///
/// # Example
///
/// ```
/// use ulmt_core::table::{Replicated, TableParams};
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_simcore::LineAddr;
///
/// let mut repl = Replicated::new(TableParams::repl_default(1024));
/// for _ in 0..2 {
///     for n in [1u64, 2, 3] {
///         repl.process_miss(LineAddr::new(n));
///     }
/// }
/// // One row access yields both levels: 2 (level 1) and 3 (level 2).
/// let preds = repl.predict(LineAddr::new(1), 2);
/// assert_eq!(preds[0], vec![LineAddr::new(2)]);
/// assert_eq!(preds[1], vec![LineAddr::new(3)]);
/// ```
#[derive(Debug)]
pub struct Replicated {
    params: TableParams,
    table: RowTable,
    /// Rows of the last, second-last, ... misses; front = most recent.
    pointers: VecDeque<RowPtr>,
}

impl Replicated {
    /// Creates an empty Replicated prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid.
    pub fn new(params: TableParams) -> Self {
        params.checked();
        let row_bytes = params.repl_row_bytes();
        // Replicated rows store all NumLevels successor levels inline.
        Replicated {
            table: RowTable::new(&params, row_bytes, params.num_levels),
            pointers: VecDeque::with_capacity(params.num_levels),
            params,
        }
    }

    /// Table parameters.
    pub fn params(&self) -> &TableParams {
        &self.params
    }

    /// Table behavior counters.
    pub fn table_stats(&self) -> &TableStats {
        self.table.stats()
    }

    /// Number of valid (learned) rows.
    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// Shrinks or grows the table (Section 3.4 dynamic sizing).
    pub fn resize(&mut self, num_rows: usize) {
        let new_params = TableParams {
            num_rows,
            ..self.params
        };
        self.table.resize(&new_params);
        self.params = new_params;
        self.pointers.clear();
    }

    /// Captures the learned rows and the retained learning pointers as a
    /// portable [`TableSnapshot`]; only the behavior counters are
    /// transient. Pointers to since-evicted rows are kept as tombstones
    /// because the pointer *position* selects the level it learns at.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            kind: SnapshotKind::Repl,
            params: self.params,
            rows: self
                .table
                .live_rows_lru()
                .into_iter()
                .map(|(tag, row)| RowSnapshot {
                    tag: tag.raw(),
                    levels: (0..row.levels())
                        .map(|level| row.level(level).iter().map(|s| s.raw()).collect())
                        .collect(),
                })
                .collect(),
            learn_ctx: self
                .pointers
                .iter()
                .map(|&ptr| self.table.tag_of(ptr).map(LineAddr::raw))
                .collect(),
        }
    }

    /// Rebuilds a prefetcher from a snapshot taken by
    /// [`Replicated::snapshot`]; the result fingerprints identically to
    /// the captured table and — because the learning pointers are
    /// re-armed from the snapshot's context — continues learning
    /// identically too.
    pub fn from_snapshot(snap: &TableSnapshot) -> Result<Self, SnapshotError> {
        snap.expect_kind(SnapshotKind::Repl)?;
        snap.params
            .validate()
            .map_err(SnapshotError::InvalidParams)?;
        let mut repl = Replicated::new(snap.params);
        for row in &snap.rows {
            let (ptr, _) = repl.table.find_or_alloc(LineAddr::new(row.tag));
            for (level, succs) in row.levels.iter().enumerate().take(snap.params.num_levels) {
                for &succ in succs.iter().rev() {
                    repl.table.insert_mru(ptr, level, LineAddr::new(succ));
                }
            }
        }
        for &entry in snap.learn_ctx.iter().take(snap.params.num_levels) {
            repl.pointers.push_back(repl.table.ctx_ptr(entry));
        }
        Ok(repl)
    }

    /// The canonical snapshot bytes, equal to
    /// `self.snapshot().to_bytes()` but encoded straight from the arena
    /// without building the per-row [`TableSnapshot`].
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let ctx = self
            .pointers
            .iter()
            .map(|&ptr| self.table.tag_of(ptr).map(LineAddr::raw));
        self.table
            .canonical_bytes(SnapshotKind::Repl, &self.params, ctx)
    }

    /// Fingerprint of the learned contents (see
    /// [`TableSnapshot::fingerprint`]), hashed from
    /// [`Replicated::snapshot_bytes`].
    pub fn table_fingerprint(&self) -> u64 {
        fingerprint_bytes(&self.snapshot_bytes())
    }

    /// The row storage, read-only.
    pub fn row_table(&self) -> &RowTable {
        &self.table
    }
}

/// Field-wise, so `clone_from` refreshes a copy in place (see
/// [`RowTable`]).
impl Clone for Replicated {
    fn clone(&self) -> Self {
        Replicated {
            params: self.params,
            table: self.table.clone(),
            pointers: self.pointers.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.params = src.params;
        self.table.clone_from(&src.table);
        self.pointers.clone_from(&src.pointers);
    }
}

impl UlmtAlgorithm for Replicated {
    fn name(&self) -> String {
        "repl".to_string()
    }

    fn process_miss(&mut self, miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();

        // Prefetching step: a single associative search and a single row
        // read emit every level's true-MRU successors.
        step.prefetch_cost.add_insns(insn_cost::STEP_OVERHEAD);
        for addr in self.table.probe_addrs(miss) {
            step.prefetch_cost.read(addr, 4);
            step.prefetch_cost.add_insns(insn_cost::PROBE_PER_WAY);
        }
        let found = self.table.lookup(miss);
        if let Some(ptr) = found {
            step.prefetch_cost
                .read(self.table.row_addr(ptr), self.table.row_bytes());
            let row = self
                .table
                .get(ptr)
                .expect("fresh pointer from lookup is valid");
            for level in 0..row.levels() {
                for &succ in row.level(level) {
                    if !step.prefetches.contains(&succ) {
                        step.prefetches.push(succ);
                    }
                    step.prefetch_cost.add_insns(insn_cost::PER_PREFETCH);
                }
            }
        }

        // Learning step: insert the miss at level i of the row of the
        // (i+1)-last miss, through the retained pointers — no searches.
        // "these multiple learning updates are inexpensive ... the rows to
        // be updated are most likely still in the cache" (Section 3.3.2).
        step.learn_cost.add_insns(insn_cost::LEARN_OVERHEAD);
        for i in 0..self.pointers.len() {
            let ptr = self.pointers[i];
            if self.table.insert_mru(ptr, i, miss) {
                // Each level is a small slice of the row.
                let addr = self.table.row_addr(ptr);
                let level_bytes = 4 * self.params.num_succ as u64;
                step.learn_cost.write(
                    addr.offset((4 + i as u64 * level_bytes) as i64),
                    level_bytes,
                );
                step.learn_cost.add_insns(insn_cost::PER_INSERT);
            }
        }
        let ptr = match found {
            Some(ptr) => ptr,
            None => {
                let (ptr, _) = self.table.find_or_alloc(miss);
                step.learn_cost.write(self.table.row_addr(ptr), 4);
                step.learn_cost.add_insns(insn_cost::PER_ALLOC);
                ptr
            }
        };
        self.pointers.push_front(ptr);
        self.pointers.truncate(self.params.num_levels);
        step
    }

    /// Batch fast path: one lookup and one inline row visit per miss,
    /// pointer-based learning, no per-step allocations.
    fn process_misses(&mut self, batch: &[LineAddr], sink: &mut dyn StepSink) {
        let probe_insns =
            insn_cost::STEP_OVERHEAD + self.table.assoc() as u64 * insn_cost::PROBE_PER_WAY;
        let mut seen: Vec<LineAddr> = Vec::new();
        for &miss in batch {
            sink.begin(miss);
            seen.clear();
            let mut prefetch_insns = probe_insns;
            let found = self.table.lookup(miss);
            if let Some(ptr) = found {
                let row = self
                    .table
                    .get(ptr)
                    .expect("fresh pointer from lookup is valid");
                for level in 0..row.levels() {
                    for &succ in row.level(level) {
                        if !seen.contains(&succ) {
                            seen.push(succ);
                            sink.prefetch(succ);
                        }
                        prefetch_insns += insn_cost::PER_PREFETCH;
                    }
                }
            }
            let mut learn_insns = insn_cost::LEARN_OVERHEAD;
            for i in 0..self.pointers.len() {
                let ptr = self.pointers[i];
                if self.table.insert_mru(ptr, i, miss) {
                    learn_insns += insn_cost::PER_INSERT;
                }
            }
            let ptr = match found {
                Some(ptr) => ptr,
                None => {
                    let (ptr, _) = self.table.find_or_alloc(miss);
                    learn_insns += insn_cost::PER_ALLOC;
                    ptr
                }
            };
            self.pointers.push_front(ptr);
            self.pointers.truncate(self.params.num_levels);
            sink.end(prefetch_insns, learn_insns);
        }
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        if let Some(row) = self.table.peek(miss) {
            for (level, slot) in out.iter_mut().enumerate().take(row.levels()) {
                *slot = row.level(level).to_vec();
            }
        }
        out
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        self.table.remap_page(old, new);
    }

    fn table_size_bytes(&self) -> u64 {
        self.table.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn small() -> Replicated {
        Replicated::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 2,
        })
    }

    #[test]
    fn figure4c_prefetches_all_levels_from_one_row() {
        let mut repl = small();
        // Miss sequence of Figure 4: a, b, c, a, d, c.
        for n in [10u64, 20, 30, 10, 40, 30] {
            repl.process_miss(line(n));
        }
        // Figure 4-(c)(iii): on miss a, prefetch d, b (level 1) and c
        // (level 2) — all from row a.
        let step = repl.process_miss(line(10));
        assert_eq!(step.prefetches, vec![line(40), line(20), line(30)]);
        // Exactly one row was read in the prefetch phase (plus tag probes).
        let row_reads = step
            .prefetch_cost
            .table_touches
            .iter()
            .filter(|t| t.bytes > 4)
            .count();
        assert_eq!(row_reads, 1);
    }

    #[test]
    fn true_mru_beats_chain_on_alternating_paths() {
        // The paper's example: a,b,c ... b,e,b,f ... a,b,c. Replicated
        // keeps c as a true level-2 successor of a even though b's own MRU
        // successors moved on.
        let mut repl = small();
        let (a, b, c, e, f) = (1u64, 2, 3, 4, 5);
        for n in [a, b, c, a, b, c, b, e, b, f, b, e, b, f] {
            repl.process_miss(line(n));
        }
        let preds = repl.predict(line(a), 2);
        assert!(preds[0].contains(&line(b)));
        assert!(preds[1].contains(&line(c)), "level-2 {:?}", preds[1]);
    }

    #[test]
    fn learning_uses_pointers_not_searches() {
        let mut repl = small();
        repl.process_miss(line(1));
        repl.process_miss(line(2));
        let lookups_before = repl.table_stats().lookups;
        // Miss on a known line: prefetch phase does 1 lookup; learning
        // should add none beyond the (hitting) prefetch lookup.
        repl.process_miss(line(1));
        let lookups = repl.table_stats().lookups - lookups_before;
        assert_eq!(lookups, 1);
    }

    #[test]
    fn pointer_staleness_is_tolerated() {
        // 1 set x 2 ways: allocating a third row invalidates the oldest
        // pointer; learning must skip it without panicking.
        let mut repl = Replicated::new(TableParams {
            num_rows: 2,
            assoc: 2,
            num_succ: 2,
            num_levels: 2,
        });
        repl.process_miss(line(1));
        repl.process_miss(line(2));
        repl.process_miss(line(3)); // replaces row 1, pointers partly stale
        repl.process_miss(line(4));
        assert!(repl.table_stats().replacements > 0);
    }

    #[test]
    fn deeper_levels_with_numlevels4() {
        // The MST/Mcf customization (Table 5): NumLevels = 4.
        let mut repl = Replicated::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 4,
        });
        for _ in 0..3 {
            for n in [1u64, 2, 3, 4, 5] {
                repl.process_miss(line(n));
            }
        }
        let preds = repl.predict(line(1), 4);
        assert_eq!(preds[0], vec![line(2)]);
        assert_eq!(preds[1], vec![line(3)]);
        assert_eq!(preds[2], vec![line(4)]);
        assert_eq!(preds[3], vec![line(5)]);
    }

    #[test]
    fn self_successor_allowed() {
        let mut repl = small();
        for _ in 0..4 {
            repl.process_miss(line(9));
        }
        let preds = repl.predict(line(9), 1);
        assert_eq!(preds[0], vec![line(9)]);
    }

    #[test]
    fn remap_rewrites_levels() {
        let mut repl = small();
        let lpp = PageAddr::lines_per_page();
        let seq = [lpp * 2, lpp * 2 + 1, lpp * 2 + 2];
        for _ in 0..2 {
            for &n in &seq {
                repl.process_miss(line(n));
            }
        }
        repl.remap_page(PageAddr::new(2), PageAddr::new(5));
        let preds = repl.predict(line(lpp * 5), 2);
        assert_eq!(preds[0], vec![line(lpp * 5 + 1)]);
        assert_eq!(preds[1], vec![line(lpp * 5 + 2)]);
    }

    #[test]
    fn resize_clears_pointers_but_keeps_rows() {
        let mut repl = small();
        for n in 0..100u64 {
            repl.process_miss(line(n));
        }
        repl.resize(64);
        assert_eq!(repl.params().num_rows, 64);
        // Learning continues from scratch pointers without panic.
        repl.process_miss(line(1));
        repl.process_miss(line(2));
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut repl = small();
        for n in [10u64, 20, 30, 10, 40, 30, 20, 10, 50, 40] {
            repl.process_miss(line(n));
        }
        let snap = repl.snapshot();
        let restored = Replicated::from_snapshot(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.table_fingerprint(), repl.table_fingerprint());
        assert_eq!(restored.predict(line(10), 2), repl.predict(line(10), 2));
        // The restored table continues exactly like the live one: the
        // snapshot's learning context re-arms the level pointers, so the
        // very next misses learn into the same rows at the same levels.
        let mut warm = restored;
        for n in [20u64, 30, 10, 60, 40, 20] {
            let a = repl.process_miss(line(n));
            let b = warm.process_miss(line(n));
            assert_eq!(a.prefetches, b.prefetches, "diverged at miss {n}");
            assert_eq!(a.total_insns(), b.total_insns(), "cost diverged at {n}");
        }
        assert_eq!(warm.table_fingerprint(), repl.table_fingerprint());
    }

    #[test]
    fn space_requirement_scales_with_levels() {
        let l3 = Replicated::new(TableParams::repl_default(1024));
        let l4 = Replicated::new(TableParams {
            num_levels: 4,
            ..TableParams::repl_default(1024)
        });
        assert!(l4.table_size_bytes() > l3.table_size_bytes());
        assert_eq!(l3.table_size_bytes(), 1024 * 28);
    }

    #[test]
    fn batch_kernel_matches_per_miss_path() {
        use crate::algorithm::CollectSink;

        let seq: Vec<LineAddr> = [10u64, 20, 30, 10, 40, 30, 20, 10, 50, 40, 30, 20, 10]
            .iter()
            .map(|&n| line(n))
            .collect();
        let mut slow = small();
        let mut expected = Vec::new();
        let mut expected_insns = 0u64;
        for &m in &seq {
            let step = slow.process_miss(m);
            expected.extend(step.prefetches.iter().copied());
            expected_insns += step.total_insns();
        }
        let mut fast = small();
        let mut sink = CollectSink::default();
        fast.process_misses(&seq, &mut sink);
        assert_eq!(sink.prefetches, expected);
        assert_eq!(sink.total_insns(), expected_insns);
        assert_eq!(fast.table_fingerprint(), slow.table_fingerprint());
        assert_eq!(fast.table_stats(), slow.table_stats());
    }
}
