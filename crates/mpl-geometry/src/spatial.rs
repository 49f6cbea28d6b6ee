//! Flat uniform-grid spatial index for neighbour queries.
//!
//! The index is built once from all its rectangles ([`GridIndex::build`])
//! and is read-only afterwards, so one index can serve any number of
//! concurrent queries.  Its storage is proportional to the grid cells the
//! rectangles cover, never to the extent of the layout: only occupied cells
//! exist, found through a hash of their coordinates.

use crate::{Nm, Rect};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A uniform-grid spatial index mapping rectangles to user-supplied ids.
///
/// Decomposition-graph construction needs, for every feature, the set of
/// features within the minimum coloring distance `min_s` (conflict
/// neighbours) and within `min_s + half_pitch` (color-friendly neighbours).
/// A uniform grid with a cell size on the order of the query distance answers
/// those queries in time proportional to the number of true neighbours, which
/// keeps graph construction linear in practice for realistic layouts.
///
/// # Layout
///
/// Every occupied cell owns one contiguous run of a single slot array
/// (compressed-sparse-row `offsets`/`slots`), holding the rectangles that
/// touch the cell in insertion order.  Occupied cells are found through a
/// hash map keyed by cell coordinates with a fast, per-index keyed hasher.
///
/// # Visiting order
///
/// A query walks the cells of its window column by column (cell x
/// ascending, then cell y ascending) and each cell's rectangles in
/// insertion order.  A rectangle is reported only from the *first* cell it
/// shares with the window, so it is reported once however many cells it
/// spans.  The resulting order — by first shared cell, then by insertion —
/// is part of the contract: the decomposition graph emits its edge lists in
/// exactly this order, and colorings depend on it.
///
/// # Example
///
/// ```
/// use mpl_geometry::{GridIndex, Nm, Rect};
///
/// let index = GridIndex::build(
///     Nm(100),
///     [
///         (0, Rect::new(Nm(0), Nm(0), Nm(20), Nm(20))),
///         (1, Rect::new(Nm(60), Nm(0), Nm(80), Nm(20))),
///         (2, Rect::new(Nm(500), Nm(500), Nm(520), Nm(520))),
///     ],
/// );
///
/// let query = Rect::new(Nm(0), Nm(0), Nm(20), Nm(20));
/// assert_eq!(index.query_within(&query, Nm(80)), vec![0, 1]);
///
/// // The visitor form allocates nothing and also hands out the squared
/// // distance it already computed.
/// let mut near = Vec::new();
/// index.visit_within(&query, Nm(80), |id, _rect, d2| near.push((id, d2)));
/// assert_eq!(near, vec![(0, 0), (1, 1600)]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: i64,
    /// Occupied cell → its dense number `c`; the cell's entries are
    /// `slots[offsets[c]..offsets[c + 1]]`.
    cells: HashMap<(i64, i64), u32, CellHash>,
    offsets: Vec<u32>,
    slots: Vec<u32>,
    /// Per cell, the dense number of the cell directly above it (`cy + 1`)
    /// or [`NONE`]: a query walks up a column without hashing again.
    above: Vec<u32>,
    /// Per entry, in insertion order: its id and its rectangle.
    ids: Vec<usize>,
    rects: Vec<Rect>,
    /// Per entry, the dense number of its id among the ids owning several
    /// rectangles, or [`NONE`].
    shared: Vec<u32>,
    shared_ids: usize,
}

/// Marks an absent cell link, or an entry whose id owns no other rectangle.
const NONE: u32 = u32::MAX;

impl GridIndex {
    /// Builds the index over `entries`, each a rectangle with its id.
    ///
    /// Ids are arbitrary; the same id may come with several rectangles (e.g.
    /// one entry per component rectangle of a polygon) and is then reported
    /// at most once by [`GridIndex::query_within_into`].  Entry order is
    /// insertion order for the visiting-order contract.
    ///
    /// A good cell size is the largest distance that will be queried (e.g.
    /// `min_s + half_pitch`); smaller cells work but waste memory, larger
    /// cells work but scan more candidates.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive, or if the index would
    /// hold `2^32` or more entries or cell slots.
    pub fn build(cell_size: Nm, entries: impl IntoIterator<Item = (usize, Rect)>) -> Self {
        assert!(
            cell_size > Nm::ZERO,
            "grid cell size must be positive, got {cell_size}"
        );
        let cell = cell_size.value();
        let (ids, rects): (Vec<usize>, Vec<Rect>) = entries.into_iter().unzip();
        let as_u32 = |n: usize| u32::try_from(n).expect("grid index holds fewer than 2^32 slots");
        as_u32(rects.len());

        // Count pass: number the occupied cells in first-touch order and
        // list every (cell, entry) pair in entry order.
        let mut cells: HashMap<(i64, i64), u32, CellHash> =
            HashMap::with_capacity_and_hasher(rects.len(), CellHash::new());
        let mut keys: Vec<(i64, i64)> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(rects.len());
        for (entry, rect) in rects.iter().enumerate() {
            let (cx0, cy0, cx1, cy1) = cell_range(cell, rect);
            for cx in cx0..=cx1 {
                for cy in cy0..=cy1 {
                    let next = as_u32(counts.len());
                    let dense = *cells.entry((cx, cy)).or_insert(next);
                    if dense == next {
                        keys.push((cx, cy));
                        counts.push(0);
                    }
                    counts[dense as usize] += 1;
                    pairs.push((dense, entry as u32));
                }
            }
        }
        as_u32(pairs.len());
        let above = keys
            .iter()
            .map(|&(cx, cy)| {
                cy.checked_add(1)
                    .and_then(|up| cells.get(&(cx, up)).copied())
                    .unwrap_or(NONE)
            })
            .collect();

        // Prefix sums; `counts` becomes each cell's fill cursor.
        let mut offsets: Vec<u32> = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for count in &mut counts {
            let start = total;
            total += *count;
            *count = start;
            offsets.push(total);
        }

        // Fill pass: pairs in entry order, so every cell's run keeps
        // insertion order.
        let mut slots = vec![0u32; pairs.len()];
        for &(dense, entry) in &pairs {
            let cursor = &mut counts[dense as usize];
            slots[*cursor as usize] = entry;
            *cursor += 1;
        }

        let (shared, shared_ids) = shared_ids(&ids);
        GridIndex {
            cell,
            cells,
            offsets,
            slots,
            above,
            ids,
            rects,
            shared,
            shared_ids,
        }
    }

    /// Number of rectangles stored in the index.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Returns `true` if the index holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Calls `visit(id, rect, distance_squared)` for every stored rectangle
    /// whose Euclidean distance to `rect` is strictly less than `limit`,
    /// once per rectangle, in the visiting order (see the type docs).  An id
    /// owning several matching rectangles is visited once for each.
    ///
    /// Allocates nothing; graph construction and spacing verification issue
    /// one such query per feature.
    pub fn visit_within(&self, rect: &Rect, limit: Nm, mut visit: impl FnMut(usize, &Rect, i64)) {
        self.visit_entries(rect, limit, |entry, d2| {
            visit(self.ids[entry], &self.rects[entry], d2);
        });
    }

    /// Fills `ids` with the ids of all rectangles whose Euclidean distance
    /// to `rect` is strictly less than `limit`, each id once, in the order
    /// of its first matching rectangle.
    ///
    /// Reusing one [`QueryIds`] across queries makes this allocation-free
    /// once its buffers have grown.
    pub fn query_within_into(&self, rect: &Rect, limit: Nm, ids: &mut QueryIds) {
        ids.ids.clear();
        if ids.stamps.len() < self.shared_ids {
            ids.stamps.resize(self.shared_ids, 0);
        }
        ids.epoch = ids.epoch.wrapping_add(1);
        if ids.epoch == 0 {
            ids.stamps.fill(0);
            ids.epoch = 1;
        }
        let QueryIds {
            ids: out,
            stamps,
            epoch,
        } = ids;
        self.visit_entries(rect, limit, |entry, _| {
            let shared = self.shared[entry];
            if shared != NONE {
                let stamp = &mut stamps[shared as usize];
                if *stamp == *epoch {
                    return;
                }
                *stamp = *epoch;
            }
            out.push(self.ids[entry]);
        });
    }

    /// Allocating form of [`GridIndex::query_within_into`]: returns the
    /// matching ids, each once, in visiting order.
    pub fn query_within(&self, rect: &Rect, limit: Nm) -> Vec<usize> {
        let mut ids = QueryIds::default();
        self.query_within_into(rect, limit, &mut ids);
        ids.ids
    }

    /// Cell slots, offsets and links plus occupied cells: the index's
    /// storage in words.
    #[cfg(test)]
    fn storage_words(&self) -> usize {
        self.slots.len() + self.offsets.len() + self.above.len() + self.cells.len()
    }

    fn visit_entries(&self, rect: &Rect, limit: Nm, mut visit: impl FnMut(usize, i64)) {
        if self.rects.is_empty() {
            return;
        }
        let limit_squared = limit.squared();
        let (qx0, qy0, qx1, qy1) = cell_range(self.cell, &rect.expanded(limit));
        for cx in qx0..=qx1 {
            // A candidate starting left of this column inside the window
            // was reported from an earlier column.
            let column_lo = if cx == qx0 { i64::MIN } else { cx * self.cell };
            // Hash only to enter a run of occupied cells; `above` links
            // walk the rest of the run.
            let mut dense = NONE;
            for cy in qy0..=qy1 {
                let row_lo = if cy == qy0 { i64::MIN } else { cy * self.cell };
                if dense == NONE {
                    match self.cells.get(&(cx, cy)) {
                        Some(&found) => dense = found,
                        None => continue,
                    }
                }
                let cell = dense as usize;
                dense = self.above[cell];
                let run = self.offsets[cell] as usize..self.offsets[cell + 1] as usize;
                for &slot in &self.slots[run] {
                    let slot = slot as usize;
                    let candidate = &self.rects[slot];
                    // Report from the first cell shared with the window only.
                    if candidate.xlo().value() < column_lo || candidate.ylo().value() < row_lo {
                        continue;
                    }
                    let d2 = rect.distance_squared(candidate);
                    if d2 < limit_squared {
                        visit(slot, d2);
                    }
                }
            }
        }
    }
}

/// Per entry, the dense number of its id among the ids owning several
/// entries (or [`NONE`]), plus the number of such ids.
fn shared_ids(ids: &[usize]) -> (Vec<u32>, usize) {
    let mut shared = vec![NONE; ids.len()];
    let mut count = 0u32;
    if ids.windows(2).all(|pair| pair[0] < pair[1]) {
        // Strictly increasing ids (one entry per id, the common case) are
        // all unshared.
        return (shared, 0);
    }
    let mut first_entry: HashMap<usize, u32, CellHash> =
        HashMap::with_capacity_and_hasher(ids.len(), CellHash::new());
    for (slot, &id) in ids.iter().enumerate() {
        match first_entry.entry(id) {
            Entry::Vacant(vacant) => {
                vacant.insert(slot as u32);
            }
            Entry::Occupied(first) => {
                let first = *first.get() as usize;
                if shared[first] == NONE {
                    shared[first] = count;
                    count += 1;
                }
                shared[slot] = shared[first];
            }
        }
    }
    (shared, count as usize)
}

/// Reusable result buffer of [`GridIndex::query_within_into`]: the matching
/// ids plus the per-id stamps that report an id owning several rectangles
/// once.
#[derive(Debug, Clone, Default)]
pub struct QueryIds {
    ids: Vec<usize>,
    stamps: Vec<u32>,
    epoch: u32,
}

impl QueryIds {
    /// The ids found by the last query.
    pub fn as_slice(&self) -> &[usize] {
        &self.ids
    }
}

/// The inclusive cell range `(cx0, cy0, cx1, cy1)` a rectangle touches.
fn cell_range(cell: i64, rect: &Rect) -> (i64, i64, i64, i64) {
    (
        rect.xlo().value().div_euclid(cell),
        rect.ylo().value().div_euclid(cell),
        rect.xhi().value().div_euclid(cell),
        rect.yhi().value().div_euclid(cell),
    )
}

/// Builds [`CellHasher`]s sharing one random key drawn per index.
///
/// A fixed hash would let crafted coordinates pile every occupied cell
/// into one bucket; the key comes from the standard library's per-process
/// random source.  Only lookups depend on the hash — nothing iterates the
/// map — so the key never changes what a query reports.
#[derive(Debug, Clone, Copy)]
struct CellHash {
    key: u64,
}

impl CellHash {
    fn new() -> Self {
        CellHash {
            key: RandomState::new().hash_one(0x9e37_79b9_7f4a_7c15_u64),
        }
    }
}

impl BuildHasher for CellHash {
    type Hasher = CellHasher;

    fn build_hasher(&self) -> CellHasher {
        CellHasher(self.key)
    }
}

/// A folded-multiply hasher over 64-bit words: two multiplies per cell key
/// instead of SipHash's rounds.
struct CellHasher(u64);

impl CellHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x5851_f42d_4c95_7f2d_u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    #[inline]
    fn write_i64(&mut self, word: i64) {
        self.mix(word as u64);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64, c: i64, d: i64) -> Rect {
        Rect::new(Nm(a), Nm(b), Nm(c), Nm(d))
    }

    fn index(cell: i64, entries: &[(usize, Rect)]) -> GridIndex {
        GridIndex::build(Nm(cell), entries.iter().copied())
    }

    fn sorted(mut ids: Vec<usize>) -> Vec<usize> {
        ids.sort_unstable();
        ids
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::build(Nm(0), []);
    }

    #[test]
    fn empty_index_reports_nothing() {
        let index = index(50, &[]);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        assert!(index.query_within(&r(0, 0, 10, 10), Nm(100)).is_empty());
    }

    #[test]
    fn finds_only_close_neighbours() {
        let index = index(
            100,
            &[
                (0, r(0, 0, 20, 20)),
                (1, r(60, 0, 80, 20)),      // 40 away from id 0
                (2, r(300, 300, 320, 320)), // far away
            ],
        );
        assert_eq!(index.len(), 3);
        assert_eq!(
            sorted(index.query_within(&r(0, 0, 20, 20), Nm(80))),
            vec![0, 1]
        );
    }

    #[test]
    fn query_across_cell_boundaries() {
        // Spread rects across many cells; the query margin must reach them.
        let index = index(10, &[(7, r(95, 0, 105, 10))]);
        assert_eq!(index.query_within(&r(0, 0, 10, 10), Nm(90)), vec![7]);
        assert!(index.query_within(&r(0, 0, 10, 10), Nm(85)).is_empty());
    }

    #[test]
    fn duplicate_ids_are_reported_once() {
        let index = index(50, &[(3, r(0, 0, 10, 10)), (3, r(5, 5, 15, 15))]);
        assert_eq!(index.query_within(&r(0, 0, 1, 1), Nm(100)), vec![3]);
        // The visitor sees each rectangle, the id twice.
        let mut visited = Vec::new();
        index.visit_within(&r(0, 0, 1, 1), Nm(100), |id, rect, _| {
            visited.push((id, *rect))
        });
        assert_eq!(visited, vec![(3, r(0, 0, 10, 10)), (3, r(5, 5, 15, 15))]);
    }

    #[test]
    fn shared_ids_stay_deduplicated_across_reused_buffers() {
        // Id 9 owns three rectangles spread over several cells, interleaved
        // with unshared ids; a reused buffer must start every query fresh.
        let index = index(
            30,
            &[
                (9, r(0, 0, 100, 10)),
                (1, r(40, 20, 50, 30)),
                (9, r(0, 40, 10, 100)),
                (2, r(200, 200, 210, 210)),
                (9, r(90, 90, 95, 95)),
            ],
        );
        let mut ids = QueryIds::default();
        for _ in 0..3 {
            index.query_within_into(&r(45, 45, 46, 46), Nm(60), &mut ids);
            assert_eq!(sorted(ids.as_slice().to_vec()), vec![1, 9]);
            index.query_within_into(&r(205, 205, 206, 206), Nm(5), &mut ids);
            assert_eq!(ids.as_slice(), &[2]);
        }
        // Epoch wrap-around clears the stamps instead of aliasing them.
        ids.epoch = u32::MAX;
        index.query_within_into(&r(45, 45, 46, 46), Nm(60), &mut ids);
        assert_eq!(sorted(ids.as_slice().to_vec()), vec![1, 9]);
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let index = index(
            64,
            &[(0, r(-200, -200, -180, -180)), (1, r(-100, -100, -80, -80))],
        );
        assert_eq!(
            index.query_within(&r(-210, -210, -190, -190), Nm(40)),
            vec![0]
        );
    }

    #[test]
    fn query_window_on_cell_boundaries_sees_both_sides() {
        // A query window whose every edge lies exactly on a grid-cell
        // boundary must still reach entries in the cells on either side —
        // the windowed tiling driver issues exactly these queries when tile
        // windows align with the index grid.
        let index = index(
            100,
            &[
                (0, r(0, 0, 100, 100)),   // touches the window's left edge
                (1, r(100, 0, 200, 100)), // coincides with the window
                (2, r(200, 0, 300, 100)), // touches the right edge
                (3, r(301, 0, 320, 100)), // 101 past the window
            ],
        );
        let window = r(100, 0, 200, 100);
        assert_eq!(sorted(index.query_within(&window, Nm(1))), vec![0, 1, 2]);
        assert_eq!(
            sorted(index.query_within(&window, Nm(102))),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn zero_area_windows_behave_as_points() {
        let index = index(
            100,
            &[
                (0, r(50, 50, 50, 50)), // zero-area entry
                (1, r(80, 50, 90, 60)),
            ],
        );
        // A zero-area query finds the coincident point entry and respects
        // the strict distance bound towards the real rectangle (gap 30).
        let point = r(50, 50, 50, 50);
        assert_eq!(index.query_within(&point, Nm(1)), vec![0]);
        assert_eq!(sorted(index.query_within(&point, Nm(31))), vec![0, 1]);
        assert_eq!(index.query_within(&r(20, 50, 20, 50), Nm(30)), vec![]);
        // A zero-area window sitting exactly on a cell corner still works.
        let corner = r(100, 100, 100, 100);
        assert_eq!(sorted(index.query_within(&corner, Nm(80))), vec![0, 1]);
    }

    #[test]
    fn shapes_exactly_at_the_query_radius_are_excluded() {
        // `query_within` is strictly-less-than, matching the conflict
        // predicate `distance < min_s`: a shape at exactly the coloring
        // distance is legal and must not be reported.
        let index = index(
            100,
            &[
                (0, r(100, 0, 120, 20)),  // axis gap exactly 80
                (1, r(80, 80, 100, 100)), // corner gap √(60²+60²) ≈ 84.85
            ],
        );
        let query = r(0, 0, 20, 20);
        assert_eq!(index.query_within(&query, Nm(80)), vec![]);
        assert_eq!(index.query_within(&query, Nm(81)), vec![0]);
        // The diagonal neighbour needs the Euclidean corner distance, not
        // the per-axis gap (60): 84² < 7200 ≤ 85².
        assert_eq!(index.query_within(&query, Nm(84)), vec![0]);
        let mut with_distance = Vec::new();
        index.visit_within(&query, Nm(85), |id, _, d2| with_distance.push((id, d2)));
        with_distance.sort_unstable();
        assert_eq!(with_distance, vec![(0, 6400), (1, 7200)]);
    }

    #[test]
    fn visiting_order_is_by_first_shared_cell_then_insertion() {
        // Cells of 100: id 0 spans columns 0..=2 (first shared cell with
        // the window is column 0), id 1 sits in column 1, id 2 (inserted
        // before id 3) and id 3 share column 2.  A window spanning columns
        // 1..=2 sees id 0 first in column 1, before id 1 (inserted later).
        let index = index(
            100,
            &[
                (2, r(250, 0, 260, 10)),
                (0, r(0, 0, 260, 10)),
                (1, r(150, 0, 160, 10)),
                (3, r(270, 0, 280, 10)),
            ],
        );
        let window = r(150, 0, 280, 10);
        assert_eq!(index.query_within(&window, Nm(1)), vec![0, 1, 2, 3]);
        // A window starting in column 0 meets id 0 there first.
        assert_eq!(
            index.query_within(&r(0, 0, 280, 10), Nm(1)),
            vec![0, 1, 2, 3]
        );
        // Starting in column 2, insertion order decides: 2, 0, 3 — then
        // nothing in column 1 is reachable.
        assert_eq!(
            index.query_within(&r(250, 0, 280, 10), Nm(1)),
            vec![2, 0, 3]
        );
    }

    #[test]
    fn storage_follows_covered_cells_not_layout_extent() {
        // Two contacts four billion nanometres apart: a dense array over
        // the bounding box would need ~10^15 cells; the flat index stores
        // one slot and one occupied cell per contact (each lies inside one
        // cell).
        let far = 2_000_000_000;
        let index = index(
            100,
            &[
                (0, r(-far, -far, -far + 20, -far + 20)),
                (1, r(far - 30, far - 30, far - 10, far - 10)),
            ],
        );
        assert_eq!(index.storage_words(), 2 + 3 + 2 + 2);
        assert_eq!(
            index.query_within(&r(-far, -far, -far, -far), Nm(10)),
            vec![0]
        );
        assert_eq!(index.query_within(&r(far, far, far, far), Nm(15)), vec![1]);
        assert!(index.query_within(&r(0, 0, 0, 0), Nm(1000)).is_empty());
    }

    #[test]
    fn extreme_coordinates_neither_overflow_nor_hang() {
        let (lo, hi) = (i64::MIN + 1000, i64::MAX - 1000);
        let far = index(
            100,
            &[
                (0, r(lo, lo, lo + 20, lo + 20)),
                (1, r(hi - 20, hi - 20, hi, hi)),
            ],
        );
        assert_eq!(far.query_within(&r(lo, lo, lo, lo), Nm(500)), vec![0]);
        assert_eq!(far.query_within(&r(hi, hi, hi, hi), Nm(500)), vec![1]);
        // A unit cell at the very top of the coordinate range has no cell
        // above it to link to.
        let top = index(1, &[(0, r(i64::MAX - 2, i64::MAX - 2, i64::MAX, i64::MAX))]);
        let corner = i64::MAX - 6; // 4 from the entry on both axes
        assert_eq!(
            top.query_within(&r(corner, corner, corner, corner), Nm(6)),
            vec![0]
        );
        assert!(top
            .query_within(&r(corner, corner, corner, corner), Nm(5))
            .is_empty());
    }

    #[test]
    fn brute_force_agreement_on_a_grid_of_rects() {
        // Cross-check the index against a brute-force scan.
        let mut rects = Vec::new();
        let mut id = 0usize;
        for i in 0..12 {
            for j in 0..9 {
                rects.push((id, r(i * 55, j * 85, i * 55 + 20, j * 85 + 30)));
                id += 1;
            }
        }
        let index = index(70, &rects);
        let query = r(160, 250, 180, 280);
        for limit in [Nm(1), Nm(40), Nm(90), Nm(200)] {
            let expected: Vec<usize> = rects
                .iter()
                .filter(|(_, rc)| query.within_distance(rc, limit))
                .map(|(i, _)| *i)
                .collect();
            assert_eq!(
                sorted(index.query_within(&query, limit)),
                expected,
                "limit {limit}"
            );
        }
    }
}
