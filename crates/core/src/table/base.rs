//! The Base correlation algorithm (Figure 4-(a)).
//!
//! This is the conventional pair-based organization of Joseph & Grunwald:
//! each row stores the tag of a miss address and `NumSucc` immediate
//! successors in MRU order. On a miss, the algorithm prefetches all the
//! successors of the corresponding row; it then learns by inserting the
//! miss as the MRU immediate successor of the *previous* miss (reached
//! through a retained row pointer, no search needed).

use ulmt_simcore::{ConfigError, LineAddr, PageAddr};

use crate::algorithm::{insn_cost, StepSink, UlmtAlgorithm};
use crate::cost::StepResult;

use super::snapshot::{fingerprint_bytes, RowSnapshot, SnapshotError, SnapshotKind, TableSnapshot};
use super::storage::{RowPtr, RowTable, TableStats};
use super::TableParams;

/// The conventional one-level correlation prefetcher.
///
/// # Example
///
/// ```
/// use ulmt_core::table::{Base, TableParams};
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_simcore::LineAddr;
///
/// let mut base = Base::new(TableParams::base_default(1024));
/// for _ in 0..2 {
///     for n in [1u64, 2, 3] {
///         base.process_miss(LineAddr::new(n));
///     }
/// }
/// // Base prefetches only immediate successors: miss on 1 predicts 2.
/// let step = base.process_miss(LineAddr::new(1));
/// assert_eq!(step.prefetches, vec![LineAddr::new(2)]);
/// ```
#[derive(Debug)]
pub struct Base {
    params: TableParams,
    table: RowTable,
    last: Option<RowPtr>,
}

impl Base {
    /// Creates an empty Base prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid or `num_levels != 1` (Base stores a
    /// single level of successors by definition).
    pub fn new(params: TableParams) -> Self {
        params.checked();
        assert_eq!(
            params.num_levels, 1,
            "Base stores exactly one level of successors"
        );
        let row_bytes = params.flat_row_bytes();
        Base {
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

    /// Shrinks or grows the table (Section 3.4 dynamic sizing).
    pub fn resize(&mut self, num_rows: usize) {
        let new_params = TableParams {
            num_rows,
            ..self.params
        };
        self.table.resize(&new_params);
        self.params = new_params;
        self.last = None;
    }

    /// Captures the learned rows and the retained learning pointer as a
    /// portable [`TableSnapshot`]; only the behavior counters are
    /// transient.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            kind: SnapshotKind::Base,
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
    /// [`Base::snapshot`]; the result fingerprints identically to the
    /// captured table and — because the learning pointer is re-armed
    /// from the snapshot's context — continues learning identically too.
    pub fn from_snapshot(snap: &TableSnapshot) -> Result<Self, SnapshotError> {
        snap.expect_kind(SnapshotKind::Base)?;
        snap.params
            .validate()
            .map_err(SnapshotError::InvalidParams)?;
        if snap.params.num_levels != 1 {
            return Err(SnapshotError::InvalidParams(ConfigError::new(
                "table",
                "Base stores exactly one level of successors",
            )));
        }
        let mut base = Base::new(snap.params);
        for row in &snap.rows {
            let (ptr, _) = base.table.find_or_alloc(LineAddr::new(row.tag));
            if let Some(level) = row.levels.first() {
                for &succ in level.iter().rev() {
                    base.table.insert_mru(ptr, 0, LineAddr::new(succ));
                }
            }
        }
        base.last = snap.learn_ctx.first().map(|&e| base.table.ctx_ptr(e));
        Ok(base)
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
            .canonical_bytes(SnapshotKind::Base, &self.params, ctx)
    }

    /// Fingerprint of the learned contents (see
    /// [`TableSnapshot::fingerprint`]), hashed from
    /// [`Base::snapshot_bytes`].
    pub fn table_fingerprint(&self) -> u64 {
        fingerprint_bytes(&self.snapshot_bytes())
    }

    /// The row storage, read-only.
    pub fn row_table(&self) -> &RowTable {
        &self.table
    }

    /// Prefetching step: look up `miss` and emit all its stored successors
    /// (MRU first).
    fn prefetch_step(&mut self, miss: LineAddr, step: &mut StepResult) -> Option<RowPtr> {
        step.prefetch_cost.add_insns(insn_cost::STEP_OVERHEAD);
        for addr in self.table.probe_addrs(miss) {
            step.prefetch_cost.read(addr, 4);
            step.prefetch_cost.add_insns(insn_cost::PROBE_PER_WAY);
        }
        let ptr = self.table.lookup(miss)?;
        let row_addr = self.table.row_addr(ptr);
        step.prefetch_cost.read(row_addr, self.table.row_bytes());
        let row = self
            .table
            .get(ptr)
            .expect("fresh pointer from lookup is valid");
        for &succ in row.level(0) {
            step.prefetches.push(succ);
            step.prefetch_cost.add_insns(insn_cost::PER_PREFETCH);
        }
        Some(ptr)
    }

    /// Learning step: insert `miss` as the MRU successor of the previous
    /// miss (through the retained pointer — no search), then find or
    /// allocate the row for `miss` and retain its pointer.
    fn learn_step(&mut self, miss: LineAddr, found: Option<RowPtr>, step: &mut StepResult) {
        step.learn_cost.add_insns(insn_cost::LEARN_OVERHEAD);
        if let Some(last) = self.last {
            if self.table.insert_mru(last, 0, miss) {
                let addr = self.table.row_addr(last);
                step.learn_cost.write(addr, self.table.row_bytes());
                step.learn_cost.add_insns(insn_cost::PER_INSERT);
            }
        }
        let ptr = match found {
            Some(ptr) => ptr,
            None => {
                let (ptr, _) = self.table.find_or_alloc(miss);
                let addr = self.table.row_addr(ptr);
                step.learn_cost.write(addr, 4); // write the tag
                step.learn_cost.add_insns(insn_cost::PER_ALLOC);
                ptr
            }
        };
        self.last = Some(ptr);
    }
}

/// Field-wise, so `clone_from` refreshes a copy in place (see
/// [`RowTable`]).
impl Clone for Base {
    fn clone(&self) -> Self {
        Base {
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

impl UlmtAlgorithm for Base {
    fn name(&self) -> String {
        "base".to_string()
    }

    fn process_miss(&mut self, miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();
        let found = self.prefetch_step(miss, &mut step);
        self.learn_step(miss, found, &mut step);
        step
    }

    /// Batch fast path: same state transitions and instruction counts as
    /// [`Base::process_miss`] per element, but with the set-probe cost
    /// hoisted out of the loop and no per-step [`StepResult`] or
    /// table-touch vectors allocated.
    fn process_misses(&mut self, batch: &[LineAddr], sink: &mut dyn StepSink) {
        let probe_insns =
            insn_cost::STEP_OVERHEAD + self.table.assoc() as u64 * insn_cost::PROBE_PER_WAY;
        for &miss in batch {
            sink.begin(miss);
            let mut prefetch_insns = probe_insns;
            let found = self.table.lookup(miss);
            if let Some(ptr) = found {
                let row = self
                    .table
                    .get(ptr)
                    .expect("fresh pointer from lookup is valid");
                for &succ in row.level(0) {
                    sink.prefetch(succ);
                    prefetch_insns += insn_cost::PER_PREFETCH;
                }
            }
            let mut learn_insns = insn_cost::LEARN_OVERHEAD;
            if let Some(last) = self.last {
                if self.table.insert_mru(last, 0, miss) {
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
            self.last = Some(ptr);
            sink.end(prefetch_insns, learn_insns);
        }
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        if levels == 0 {
            return out;
        }
        if let Some(row) = self.table.peek(miss) {
            out[0] = row.level(0).to_vec();
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

    fn small() -> Base {
        Base::new(TableParams {
            num_rows: 256,
            assoc: 4,
            num_succ: 4,
            num_levels: 1,
        })
    }

    /// Replays the miss sequence of Figure 4: a, b, c, a, d, c.
    fn figure4_sequence(alg: &mut Base) {
        for n in [10u64, 20, 30, 10, 40, 30] {
            alg.process_miss(line(n));
        }
    }

    #[test]
    fn figure4a_state_and_prefetch() {
        let mut base = small();
        figure4_sequence(&mut base);
        // Row a holds {d, b} in MRU order (Figure 4-(a)(ii)).
        let preds = base.predict(line(10), 1);
        assert_eq!(preds[0], vec![line(40), line(20)]);
        // On a miss on a, Base prefetches d and b (Figure 4-(a)(iii)).
        let step = base.process_miss(line(10));
        assert_eq!(step.prefetches, vec![line(40), line(20)]);
    }

    #[test]
    fn first_miss_prefetches_nothing() {
        let mut base = small();
        let step = base.process_miss(line(1));
        assert!(step.prefetches.is_empty());
        // But the step still charged the search.
        assert!(step.prefetch_cost.insns > 0);
        assert!(!step.prefetch_cost.table_touches.is_empty());
    }

    #[test]
    fn successor_lists_are_lru_capped() {
        let mut base = Base::new(TableParams {
            num_rows: 256,
            assoc: 4,
            num_succ: 2,
            num_levels: 1,
        });
        // a followed by b, c, d at different times: only 2 most recent kept.
        for n in [1u64, 2, 1, 3, 1, 4] {
            base.process_miss(line(n));
        }
        let preds = base.predict(line(1), 1);
        assert_eq!(preds[0], vec![line(4), line(3)]);
    }

    #[test]
    fn learning_costs_are_charged_to_learn_phase() {
        let mut base = small();
        base.process_miss(line(1));
        let step = base.process_miss(line(2));
        // Learning writes the last row (successor insert) and the new row.
        let writes = step
            .learn_cost
            .table_touches
            .iter()
            .filter(|t| t.is_write)
            .count();
        assert_eq!(writes, 2);
        // Prefetch phase never writes.
        assert!(step.prefetch_cost.table_touches.iter().all(|t| !t.is_write));
    }

    #[test]
    fn predict_is_pure() {
        let mut base = small();
        figure4_sequence(&mut base);
        let before = base.table_stats().lookups;
        let _ = base.predict(line(10), 1);
        assert_eq!(base.table_stats().lookups, before);
    }

    #[test]
    fn remap_moves_learned_correlations() {
        let mut base = small();
        let lpp = PageAddr::lines_per_page();
        let a = line(lpp * 4);
        let b = line(lpp * 4 + 1);
        for _ in 0..2 {
            base.process_miss(a);
            base.process_miss(b);
        }
        base.remap_page(PageAddr::new(4), PageAddr::new(9));
        let a_new = line(lpp * 9);
        let b_new = line(lpp * 9 + 1);
        let preds = base.predict(a_new, 1);
        assert!(preds[0].contains(&b_new), "preds {:?}", preds[0]);
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut base = small();
        for n in [10u64, 20, 30, 10, 40, 30, 20, 10, 50] {
            base.process_miss(line(n));
        }
        let snap = base.snapshot();
        let restored = Base::from_snapshot(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.table_fingerprint(), base.table_fingerprint());
        assert_eq!(restored.predict(line(10), 1), base.predict(line(10), 1));
        // And through the byte codec too.
        let snap2 = super::super::TableSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap2.fingerprint(), snap.fingerprint());
    }

    #[test]
    fn restored_table_continues_bit_identically() {
        let mut live = small();
        for n in [10u64, 20, 30, 10, 40, 30, 20] {
            live.process_miss(line(n));
        }
        // The restored table must not just fingerprint equal — it must
        // *evolve* identically, which requires the learning pointer to
        // survive the snapshot (the next miss links to the last row).
        let mut warm = Base::from_snapshot(&live.snapshot()).unwrap();
        for n in [10u64, 50, 20, 60, 10, 50] {
            let a = live.process_miss(line(n));
            let b = warm.process_miss(line(n));
            assert_eq!(a.prefetches, b.prefetches, "diverged at miss {n}");
            assert_eq!(a.total_insns(), b.total_insns(), "cost diverged at {n}");
        }
        assert_eq!(warm.table_fingerprint(), live.table_fingerprint());
    }

    #[test]
    fn snapshot_rejects_wrong_kind() {
        let chain = crate::table::Chain::new(TableParams::chain_default(64));
        assert!(Base::from_snapshot(&chain.snapshot()).is_err());
    }

    #[test]
    fn resize_shrinks_table() {
        let mut base = small();
        for n in 0..200u64 {
            base.process_miss(line(n));
        }
        base.resize(64);
        assert_eq!(base.params().num_rows, 64);
        assert!(base.table_size_bytes() < 256 * 20);
        // Still functional after resize.
        base.process_miss(line(1));
        base.process_miss(line(2));
        base.process_miss(line(1));
        let step = base.process_miss(line(2));
        assert!(step.prefetches.is_empty() || !step.prefetches.is_empty());
    }

    #[test]
    fn batch_kernel_matches_per_miss_path() {
        use crate::algorithm::CollectSink;

        let seq: Vec<LineAddr> = [10u64, 20, 30, 10, 40, 30, 20, 10, 50, 40, 30, 20]
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
