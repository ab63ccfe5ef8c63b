//! The Chain correlation algorithm (Figure 4-(b)).
//!
//! Chain uses the *conventional* table organization (same rows as
//! [`Base`](super::Base)) but, when prefetching, walks `NumLevels` rows
//! along the MRU path: after prefetching the immediate successors of the
//! missed line, it takes the MRU successor, looks *its* row up, prefetches
//! those successors, and repeats.
//!
//! The paper identifies its two weaknesses, both reproduced here
//! faithfully: the walked successors are not the *true* MRU successors of
//! each level (only those along the MRU path), and every level costs an
//! extra associative search — hence Chain's high response time in
//! Figure 10.

use ulmt_simcore::{LineAddr, PageAddr};

use crate::algorithm::{insn_cost, StepSink, UlmtAlgorithm};
use crate::cost::StepResult;

use super::snapshot::{fingerprint_bytes, RowSnapshot, SnapshotError, SnapshotKind, TableSnapshot};
use super::storage::{RowPtr, RowTable, TableStats};
use super::TableParams;

/// Multi-level correlation prefetching over the conventional table.
///
/// # Example
///
/// ```
/// use ulmt_core::table::{Chain, TableParams};
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_simcore::LineAddr;
///
/// let mut chain = Chain::new(TableParams::chain_default(1024));
/// for _ in 0..2 {
///     for n in [1u64, 2, 3] {
///         chain.process_miss(LineAddr::new(n));
///     }
/// }
/// // Miss on 1: level 1 gives 2; following the MRU link gives 3.
/// let step = chain.process_miss(LineAddr::new(1));
/// assert!(step.prefetches.starts_with(&[LineAddr::new(2), LineAddr::new(3)]));
/// ```
#[derive(Debug)]
pub struct Chain {
    params: TableParams,
    table: RowTable,
    last: Option<RowPtr>,
}

impl Chain {
    /// Creates an empty Chain prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid.
    pub fn new(params: TableParams) -> Self {
        params.checked();
        let row_bytes = params.flat_row_bytes();
        // Chain walks `num_levels` rows when prefetching but each row
        // stores a single successor level, like Base.
        Chain {
            table: RowTable::new(&params, row_bytes, 1),
            params,
            last: None,
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

    /// Captures the learned rows and the retained learning pointer as a
    /// portable [`TableSnapshot`]; only the behavior counters are
    /// transient.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            kind: SnapshotKind::Chain,
            params: self.params,
            rows: self
                .table
                .live_rows_lru()
                .into_iter()
                .map(|(tag, row)| RowSnapshot {
                    tag: tag.raw(),
                    levels: vec![row.level(0).iter().map(|s| s.raw()).collect()],
                })
                .collect(),
            learn_ctx: self
                .last
                .iter()
                .map(|&ptr| self.table.tag_of(ptr).map(LineAddr::raw))
                .collect(),
        }
    }

    /// Rebuilds a prefetcher from a snapshot taken by
    /// [`Chain::snapshot`]; the result fingerprints identically to the
    /// captured table and — because the learning pointer is re-armed
    /// from the snapshot's context — continues learning identically too.
    pub fn from_snapshot(snap: &TableSnapshot) -> Result<Self, SnapshotError> {
        snap.expect_kind(SnapshotKind::Chain)?;
        snap.params
            .validate()
            .map_err(SnapshotError::InvalidParams)?;
        let mut chain = Chain::new(snap.params);
        for row in &snap.rows {
            let (ptr, _) = chain.table.find_or_alloc(LineAddr::new(row.tag));
            if let Some(level) = row.levels.first() {
                for &succ in level.iter().rev() {
                    chain.table.insert_mru(ptr, 0, LineAddr::new(succ));
                }
            }
        }
        chain.last = snap.learn_ctx.first().map(|&e| chain.table.ctx_ptr(e));
        Ok(chain)
    }

    /// The canonical snapshot bytes, equal to
    /// `self.snapshot().to_bytes()` but encoded straight from the arena
    /// without building the per-row [`TableSnapshot`].
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let ctx = self
            .last
            .iter()
            .map(|&ptr| self.table.tag_of(ptr).map(LineAddr::raw));
        self.table
            .canonical_bytes(SnapshotKind::Chain, &self.params, ctx)
    }

    /// Fingerprint of the learned contents (see
    /// [`TableSnapshot::fingerprint`]), hashed from
    /// [`Chain::snapshot_bytes`].
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
impl Clone for Chain {
    fn clone(&self) -> Self {
        Chain {
            params: self.params,
            table: self.table.clone(),
            last: self.last,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.params = src.params;
        self.table.clone_from(&src.table);
        self.last = src.last;
    }
}

impl UlmtAlgorithm for Chain {
    fn name(&self) -> String {
        "chain".to_string()
    }

    fn process_miss(&mut self, miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();

        // Prefetching step: NumLevels row accesses, each a full
        // associative search — this is what makes Chain's response slow.
        step.prefetch_cost.add_insns(insn_cost::STEP_OVERHEAD);
        let mut cur = miss;
        let mut found_first: Option<RowPtr> = None;
        for level in 0..self.params.num_levels {
            for addr in self.table.probe_addrs(cur) {
                step.prefetch_cost.read(addr, 4);
                step.prefetch_cost.add_insns(insn_cost::PROBE_PER_WAY);
            }
            let Some(ptr) = self.table.lookup(cur) else {
                break;
            };
            if level == 0 {
                found_first = Some(ptr);
            }
            step.prefetch_cost
                .read(self.table.row_addr(ptr), self.table.row_bytes());
            let row = self
                .table
                .get(ptr)
                .expect("fresh pointer from lookup is valid");
            let mru = row.mru(0);
            for &succ in row.level(0) {
                if !step.prefetches.contains(&succ) {
                    step.prefetches.push(succ);
                }
                step.prefetch_cost.add_insns(insn_cost::PER_PREFETCH);
            }
            match mru {
                Some(next) => cur = next,
                None => break,
            }
        }

        // Learning step: identical to Base — insert the miss as MRU
        // successor of the previous miss via the retained pointer.
        step.learn_cost.add_insns(insn_cost::LEARN_OVERHEAD);
        if let Some(last) = self.last {
            if self.table.insert_mru(last, 0, miss) {
                let addr = self.table.row_addr(last);
                step.learn_cost.write(addr, self.table.row_bytes());
                step.learn_cost.add_insns(insn_cost::PER_INSERT);
            }
        }
        let ptr = match found_first {
            Some(ptr) => ptr,
            None => {
                let (ptr, _) = self.table.find_or_alloc(miss);
                step.learn_cost.write(self.table.row_addr(ptr), 4);
                step.learn_cost.add_insns(insn_cost::PER_ALLOC);
                ptr
            }
        };
        self.last = Some(ptr);
        step
    }

    /// Batch fast path: the same MRU-path walk and learning as
    /// [`Chain::process_miss`], with per-step de-duplication running over
    /// a scratch buffer reused across the whole batch.
    fn process_misses(&mut self, batch: &[LineAddr], sink: &mut dyn StepSink) {
        let probe_insns = self.table.assoc() as u64 * insn_cost::PROBE_PER_WAY;
        let mut seen: Vec<LineAddr> = Vec::new();
        for &miss in batch {
            sink.begin(miss);
            seen.clear();
            let mut prefetch_insns = insn_cost::STEP_OVERHEAD;
            let mut cur = miss;
            let mut found_first: Option<RowPtr> = None;
            for level in 0..self.params.num_levels {
                prefetch_insns += probe_insns;
                let Some(ptr) = self.table.lookup(cur) else {
                    break;
                };
                if level == 0 {
                    found_first = Some(ptr);
                }
                let row = self
                    .table
                    .get(ptr)
                    .expect("fresh pointer from lookup is valid");
                let mru = row.mru(0);
                for &succ in row.level(0) {
                    if !seen.contains(&succ) {
                        seen.push(succ);
                        sink.prefetch(succ);
                    }
                    prefetch_insns += insn_cost::PER_PREFETCH;
                }
                match mru {
                    Some(next) => cur = next,
                    None => break,
                }
            }
            let mut learn_insns = insn_cost::LEARN_OVERHEAD;
            if let Some(last) = self.last {
                if self.table.insert_mru(last, 0, miss) {
                    learn_insns += insn_cost::PER_INSERT;
                }
            }
            let ptr = match found_first {
                Some(ptr) => ptr,
                None => {
                    let (ptr, _) = self.table.find_or_alloc(miss);
                    learn_insns += insn_cost::PER_ALLOC;
                    ptr
                }
            };
            self.last = Some(ptr);
            sink.end(prefetch_insns, learn_insns);
        }
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        let mut cur = miss;
        for level in out.iter_mut() {
            let Some(row) = self.table.peek(cur) else {
                break;
            };
            *level = row.level(0).to_vec();
            match row.mru(0) {
                Some(next) => cur = next,
                None => break,
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

    fn small() -> Chain {
        Chain::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 2,
        })
    }

    #[test]
    fn figure4b_prefetch_follows_mru_path() {
        let mut chain = small();
        // Miss sequence of Figure 4: a, b, c, a, d, c (a=10, b=20, c=30, d=40).
        for n in [10u64, 20, 30, 10, 40, 30] {
            chain.process_miss(line(n));
        }
        // On miss a: prefetch row a = {d, b}; follow MRU link d; row d =
        // {c}; prefetch c (Figure 4-(b)(iii)).
        let step = chain.process_miss(line(10));
        assert_eq!(step.prefetches, vec![line(40), line(20), line(30)]);
    }

    #[test]
    fn chain_misses_off_path_successors() {
        // Sequence alternating a,b,c and b,e,b,f (the paper's example of
        // Chain's inaccuracy): on miss a, Chain prefetches b then follows
        // b's row — it does NOT prefetch c if b's MRU successors changed.
        let mut chain = small();
        let (a, b, c, e, f) = (1u64, 2, 3, 4, 5);
        let seq: Vec<u64> = [a, b, c, a, b, c, b, e, b, f, b, e, b, f].to_vec();
        for n in seq {
            chain.process_miss(line(n));
        }
        let step = chain.process_miss(line(a));
        assert!(step.prefetches.contains(&line(b)));
        // c is not among the prefetches: the MRU path from b leads to e/f.
        assert!(
            !step.prefetches.contains(&line(c)),
            "prefetches {:?}",
            step.prefetches
        );
    }

    #[test]
    fn response_cost_grows_with_levels() {
        let shallow = Chain::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 1,
        });
        let deep = Chain::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 3,
        });
        let train = |mut c: Chain| {
            for _ in 0..3 {
                for n in 1..=4u64 {
                    c.process_miss(line(n));
                }
            }
            c.process_miss(line(1)).prefetch_cost
        };
        let cost_shallow = train(shallow);
        let cost_deep = train(deep);
        assert!(cost_deep.insns > cost_shallow.insns);
        assert!(cost_deep.table_touches.len() > cost_shallow.table_touches.len());
    }

    #[test]
    fn predict_walks_levels() {
        let mut chain = small();
        for _ in 0..2 {
            for n in [1u64, 2, 3] {
                chain.process_miss(line(n));
            }
        }
        let preds = chain.predict(line(1), 2);
        assert_eq!(preds[0], vec![line(2)]);
        assert_eq!(preds[1], vec![line(3)]);
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut chain = small();
        for n in [1u64, 2, 3, 1, 4, 3, 2, 1] {
            chain.process_miss(line(n));
        }
        let snap = chain.snapshot();
        let restored = Chain::from_snapshot(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.table_fingerprint(), chain.table_fingerprint());
        assert_eq!(restored.predict(line(1), 2), chain.predict(line(1), 2));
        // And the restored table continues learning exactly like the
        // live one — the snapshot re-armed the learning pointer.
        let mut warm = restored;
        for n in [1u64, 5, 2, 6, 1] {
            let a = chain.process_miss(line(n));
            let b = warm.process_miss(line(n));
            assert_eq!(a.prefetches, b.prefetches, "diverged at miss {n}");
        }
        assert_eq!(warm.table_fingerprint(), chain.table_fingerprint());
    }

    #[test]
    fn no_prefetch_without_training() {
        let mut chain = small();
        let step = chain.process_miss(line(7));
        assert!(step.prefetches.is_empty());
    }

    #[test]
    fn batch_kernel_matches_per_miss_path() {
        use crate::algorithm::CollectSink;

        let seq: Vec<LineAddr> = [1u64, 2, 3, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 2, 3]
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
