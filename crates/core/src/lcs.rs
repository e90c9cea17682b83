//! Algorithms 2 and 3 — the modified Longest Common Subsequence on
//! BE-strings.
//!
//! The paper's key retrieval insight (§4): *"The LCS string implies that,
//! in query image and database image, all the spatial relationships of
//! every two objects in LCS string are the same."* Finding an LCS between
//! two BE-strings therefore measures how many objects-plus-relations the
//! two images share — in O(mn), where the classic 2-D string family needs
//! a maximum-clique search (NP-complete).
//!
//! Two modifications distinguish this from the textbook LCS:
//!
//! 1. **No consecutive dummies.** One dummy object suffices to witness
//!    "these boundaries are distinct"; letting the LCS pick two in a row
//!    would inflate scores with meaningless free-space matches. The DP
//!    table stores *signed* lengths: `w[i][j] < 0` records that the LCS
//!    realised at `(i, j)` ends with a dummy, and a diagonal ε–ε match is
//!    admitted only when `w[i-1][j-1] ≥ 0`.
//! 2. **No direction matrix.** The classic algorithm keeps a second matrix
//!    of back-pointers; Algorithm 2 evaluates the left/up inheritance
//!    *before* the diagonal and Algorithm 3 re-infers the path from the
//!    length table alone.
//!
//! # Integer codes
//!
//! The DP only ever asks "is query symbol `i` equal to target symbol
//! `j`?", so both strings are compared as `u32` codes instead of
//! [`BeSymbol`]s. The query's classes are numbered `0..k` once
//! ([`ClassCodes`]); then
//!
//! * the dummy ε is `0`;
//! * a boundary of query class `i` is `1 + 2·i + is_end`;
//! * a boundary of any class the query does not contain is one shared
//!   sentinel, `u32::MAX`, which no query code equals.
//!
//! Two targets' absent classes may share the sentinel because the DP
//! never compares target symbols with each other: for every pair it
//! does compare, code equality is exactly [`BeSymbol`] equality.
//! Encoding a stored image reads its boundary events directly
//! (through the same dummy-placement walk that materialises the
//! string), so scoring builds no [`BeString`] and clones no class name.
//!
//! # One cell rule, two kernels
//!
//! Lines 16–26 of Algorithm 2 are one function, `step`, used by
//!
//! * the **scalar fill**, which keeps the full `(m+1) × (n+1)` table
//!   for [`LcsTable`] and for the boundary-only similarity (whose
//!   count needs Algorithm 3's traceback), and
//! * the **lane kernel**, which scores [`LANES`] targets against one
//!   query in lockstep: targets are stored transposed (column `j` holds
//!   symbol `j` of every lane) and the DP keeps two rolling rows of
//!   `[i32; LANES]`, so each cell update is the same arithmetic on
//!   eight independent lanes and compiles to vector selects.
//!
//! Targets of unequal length share a lane group by padding the shorter
//! ones at the end with the sentinel. A padded column never matches, so
//! it only inherits from its up/left neighbours: every real column is
//! computed exactly as without padding (the DP reads only up and left),
//! and since `|w|` never decreases along a row or column,
//! `|w[m][N]| = |w[m][n]|` for a lane of real length `n ≤ N`.

use crate::{AnnotatedBeString, BeString, BeSymbol, Boundary};
use be2d_geometry::ObjectClass;

/// Targets scored in lockstep by one pass of the lane kernel.
pub const LANES: usize = 8;

/// Code of the dummy object ε.
pub(crate) const DUMMY: u32 = 0;

/// Code of every boundary whose class the query does not contain; also
/// pads short lanes. Equal to no query code.
pub(crate) const ABSENT: u32 = u32::MAX;

/// The query's class alphabet, numbering each class for the integer
/// codes described in the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassCodes {
    /// Each query class with its [`name_key`], in code order.
    classes: Vec<(u64, ObjectClass)>,
}

/// A class name's length (top byte, saturating) and up to its first
/// seven bytes: equal names have equal keys, and names of at most seven
/// bytes are equal exactly when their keys are. Lets the encoder, which
/// looks up every boundary event of every candidate, compare integers
/// instead of strings.
#[inline]
fn name_key(name: &str) -> u64 {
    let mut key = [0u8; 8];
    for (k, b) in key.iter_mut().zip(name.bytes().take(7)) {
        *k = b;
    }
    key[7] = u8::try_from(name.len()).unwrap_or(u8::MAX);
    u64::from_le_bytes(key)
}

impl ClassCodes {
    /// Numbers the classes of `symbols` in order of first appearance.
    pub(crate) fn of<'a>(symbols: impl IntoIterator<Item = &'a BeSymbol>) -> ClassCodes {
        let mut classes: Vec<(u64, ObjectClass)> = Vec::new();
        for class in symbols.into_iter().filter_map(BeSymbol::class) {
            if !classes.iter().any(|(_, c)| c == class) {
                classes.push((name_key(class.name()), class.clone()));
            }
        }
        ClassCodes { classes }
    }

    /// The code of one boundary symbol.
    #[inline]
    pub(crate) fn code(&self, class: &ObjectClass, boundary: Boundary) -> u32 {
        let name = class.name();
        let key = name_key(name);
        self.classes
            .iter()
            .position(|(k, c)| *k == key && (name.len() < 8 || c.name() == name))
            .map_or(ABSENT, |i| {
                let i = u32::try_from(i).expect("query class count fits in u32");
                1 + 2 * i + u32::from(boundary == Boundary::End)
            })
    }

    /// The code of any symbol.
    pub(crate) fn symbol_code(&self, symbol: &BeSymbol) -> u32 {
        match symbol {
            BeSymbol::Dummy => DUMMY,
            BeSymbol::Bound { class, boundary } => self.code(class, *boundary),
        }
    }

    /// Encodes a materialised string into `out` (cleared first).
    pub(crate) fn encode(&self, s: &BeString, out: &mut Vec<u32>) {
        out.clear();
        out.extend(s.symbols().iter().map(|sym| self.symbol_code(sym)));
    }

    /// Encodes a stored axis straight from its boundary events, calling
    /// `emit` once per symbol of the materialised string in order.
    pub(crate) fn encode_events(&self, axis: &AnnotatedBeString, mut emit: impl FnMut(u32)) {
        axis.walk_symbols(|event| {
            emit(event.map_or(DUMMY, |e| self.code(&e.class, e.boundary)));
        });
    }
}

/// Algorithm 2 lines 16–26 for one cell: inherit the neighbour with the
/// larger absolute value (up on ties), then follow the diagonal when the
/// symbols match, the match is not a dummy extending a dummy-tailed LCS,
/// and the diagonal is strictly longer; a dummy match is stored negative
/// ("ends with ε").
///
/// "Strictly longer" is tested without the inherited value: `|w|` never
/// decreases along a row or a column, so `|up| ≥ |diag|` and
/// `|left| ≥ |diag|`, and `|diag| + 1 > max(|up|, |left|)` holds exactly
/// when both neighbours are as long as the diagonal. That takes the
/// inherited value off the critical path from the left neighbour.
/// Written with non-short-circuit `&`/`|` and selects rather than
/// branches, so the lane kernel vectorises on dummy rows too.
#[inline]
fn step(up: i32, left: i32, diag: i32, matched: bool, query_is_dummy: bool) -> i32 {
    let (up_len, left_len, diag_len) = (up.abs(), left.abs(), diag.abs());
    let inherited = if up_len >= left_len { up } else { left };
    let longer = (up_len == diag_len) & (left_len == diag_len);
    let take = matched & (!query_is_dummy | (diag >= 0)) & longer;
    let extended = if query_is_dummy {
        -(diag_len + 1)
    } else {
        diag_len + 1
    };
    if take {
        extended
    } else {
        inherited
    }
}

/// The scalar full-table fill: writes the row-major `(m+1) × (n+1)`
/// signed table of `query` against `target` into `w`, reusing its
/// allocation.
pub(crate) fn fill_table(query: &[u32], target: &[u32], w: &mut Vec<i32>) {
    let cols = target.len() + 1;
    w.clear();
    // Lines 7–11: first row and column initialised to zero.
    w.resize((query.len() + 1) * cols, 0);
    for (i, &qc) in query.iter().enumerate() {
        let (done, rest) = w.split_at_mut((i + 1) * cols);
        let up_row = &done[i * cols..];
        let row = &mut rest[..cols];
        for (j, &tc) in target.iter().enumerate() {
            row[j + 1] = step(up_row[j + 1], row[j], up_row[j], qc == tc, qc == DUMMY);
        }
    }
}

/// Algorithm 3's walk over a filled table, iteratively: from `w[m][n]`,
/// step up when the absolute value equals the upper cell's, else left
/// when it equals the left cell's, else the cell was set by a diagonal
/// match and `on_match(i - 1)` reports its query position. Matches are
/// reported from the end of the LCS backwards.
pub(crate) fn traceback(w: &[i32], cols: usize, mut on_match: impl FnMut(usize)) {
    let at = |i: usize, j: usize| w[i * cols + j].abs();
    let (mut i, mut j) = (w.len() / cols - 1, cols - 1);
    while i > 0 && j > 0 {
        let here = at(i, j);
        if here == at(i - 1, j) {
            i -= 1;
        } else if here == at(i, j - 1) {
            j -= 1;
        } else {
            on_match(i - 1);
            i -= 1;
            j -= 1;
        }
    }
}

/// One axis of a lane group: up to [`LANES`] targets' codes stored
/// transposed, each lane padded at the end with the sentinel.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneAxis {
    /// `columns[j][lane]` is symbol `j` of that lane's target.
    columns: Vec<[u32; LANES]>,
    /// Real symbol count per lane.
    pub(crate) len: [usize; LANES],
    /// Boundary (non-dummy) symbol count per lane.
    pub(crate) boundaries: [usize; LANES],
}

impl LaneAxis {
    /// Empties the group, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.columns.clear();
        self.len = [0; LANES];
        self.boundaries = [0; LANES];
    }

    /// Appends the next symbol code of `lane`'s target.
    #[inline]
    pub(crate) fn push(&mut self, lane: usize, code: u32) {
        let j = self.len[lane];
        if j == self.columns.len() {
            self.columns.push([ABSENT; LANES]);
        }
        self.columns[j][lane] = code;
        self.len[lane] += 1;
        self.boundaries[lane] += usize::from(code != DUMMY);
    }
}

/// Reusable buffers of both kernels, kept between calls so that scoring
/// allocates nothing once they have grown to the longest target.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelScratch {
    /// The lane kernel's two rolling rows.
    up: Vec<[i32; LANES]>,
    row: Vec<[i32; LANES]>,
    /// The scalar fill's table and one lane's target, contiguous.
    table: Vec<i32>,
    target: Vec<u32>,
}

/// The lane kernel: `|w[m][n]|` of `query` against every lane of
/// `targets` (lanes beyond the group's targets read 0).
pub(crate) fn lane_lengths(
    query: &[u32],
    targets: &LaneAxis,
    scratch: &mut KernelScratch,
) -> [usize; LANES] {
    let columns = &targets.columns[..];
    let n = columns.len();
    let KernelScratch { up, row, .. } = scratch;
    up.clear();
    up.resize(n + 1, [0; LANES]);
    row.clear();
    row.resize(n + 1, [0; LANES]);
    for &qc in query {
        let query_is_dummy = qc == DUMMY;
        // Re-slice so the compiler sees both rows are `n + 1` long.
        let (above_row, this_row) = (&up[..=n], &mut row[..=n]);
        for (j, column) in columns.iter().enumerate() {
            let (above, diag, left) = (above_row[j + 1], above_row[j], this_row[j]);
            let mut cell = [0; LANES];
            for lane in 0..LANES {
                cell[lane] = step(
                    above[lane],
                    left[lane],
                    diag[lane],
                    column[lane] == qc,
                    query_is_dummy,
                );
            }
            this_row[j + 1] = cell;
        }
        std::mem::swap(up, row);
    }
    up[n].map(|v| v.unsigned_abs() as usize)
}

/// Boundary symbols on Algorithm 3's LCS path of `query` against each of
/// the first `lanes` targets: the scalar fill plus traceback, one lane
/// at a time (the boundary-only similarity needs the full table).
pub(crate) fn boundary_lengths(
    query: &[u32],
    targets: &LaneAxis,
    lanes: usize,
    scratch: &mut KernelScratch,
) -> [usize; LANES] {
    let mut out = [0; LANES];
    for (lane, count) in out.iter_mut().enumerate().take(lanes) {
        scratch.target.clear();
        scratch
            .target
            .extend(targets.columns[..targets.len[lane]].iter().map(|c| c[lane]));
        fill_table(query, &scratch.target, &mut scratch.table);
        traceback(&scratch.table, scratch.target.len() + 1, |i| {
            *count += usize::from(query[i] != DUMMY);
        });
    }
    out
}

/// The signed LCS length-inference table `W` of Algorithm 2.
///
/// Row `i`/column `j` correspond to the length-`i`/`j` prefixes of the
/// query/database strings; `|w[i][j]|` is the LCS length of those prefixes
/// and the sign records whether that LCS ends with a dummy object.
///
/// # Example
///
/// ```
/// use be2d_core::{BeString, LcsTable};
///
/// let q: BeString = "E A_b E A_e E".parse()?;
/// let d: BeString = "E A_b E B_b E A_e E B_e E".parse()?;
/// let table = LcsTable::build(&q, &d);
/// assert_eq!(table.length(), 5); // all of q embeds in d
/// # Ok::<(), be2d_core::BeStringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LcsTable {
    /// Row-major `(m+1) × (n+1)` signed length table.
    w: Vec<i32>,
    /// Number of columns (`n + 1`).
    cols: usize,
    /// Query symbols (needed to print the LCS string).
    query: Vec<BeSymbol>,
}

impl LcsTable {
    /// Runs Algorithm 2 (`2D_Be_LCS_Length`) on one axis pair.
    ///
    /// Time and space are O(mn) in the string lengths; for images with
    /// `m`/`n` objects the strings have at most `4m+1` / `4n+1` symbols,
    /// so this is O(mn) in the object counts too — the complexity the
    /// paper claims.
    #[must_use]
    pub fn build(query: &BeString, database: &BeString) -> LcsTable {
        let codes = ClassCodes::of(query.symbols());
        let (mut q, mut d) = (Vec::new(), Vec::new());
        codes.encode(query, &mut q);
        codes.encode(database, &mut d);
        let mut w = Vec::new();
        fill_table(&q, &d, &mut w);
        LcsTable {
            w,
            cols: d.len() + 1,
            query: query.symbols().to_vec(),
        }
    }

    /// The LCS length `|w[m][n]|`.
    #[must_use]
    pub fn length(&self) -> usize {
        self.w.last().map_or(0, |v| v.unsigned_abs() as usize)
    }

    /// Raw signed cell value (row `i`, column `j`). Exposed for the
    /// algorithm-shape tests and the demo's table visualisation.
    ///
    /// # Panics
    ///
    /// Panics when the indices exceed the table dimensions.
    #[must_use]
    pub fn cell(&self, i: usize, j: usize) -> i32 {
        assert!(
            j < self.cols && i * self.cols + j < self.w.len(),
            "cell index out of range"
        );
        self.w[i * self.cols + j]
    }

    /// Number of rows (`m + 1`).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.w.len() / self.cols
    }

    /// Number of columns (`n + 1`).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reconstructs one LCS string — Algorithm 3 (`Print_2D_Be_LCS`),
    /// iteratively.
    ///
    /// Walks from `w[m][n]`: when the absolute value equals the upper
    /// cell's the path came from above; else when it equals the left
    /// cell's it came from the left; otherwise the cell was set by a
    /// diagonal match and its query symbol belongs to the LCS.
    #[must_use]
    pub fn lcs_string(&self) -> Vec<BeSymbol> {
        let mut out = Vec::new();
        traceback(&self.w, self.cols, |i| out.push(self.query[i].clone()));
        out.reverse();
        out
    }

    /// Reconstructs the LCS with the paper's literal recursion (Algorithm
    /// 3). Provided to cross-check the iterative version; both always
    /// produce identical output (property-tested).
    #[must_use]
    pub fn lcs_string_recursive(&self) -> Vec<BeSymbol> {
        fn rec(t: &LcsTable, i: usize, j: usize, out: &mut Vec<BeSymbol>) {
            if i == 0 || j == 0 {
                return;
            }
            if t.cell(i, j).abs() == t.cell(i - 1, j).abs() {
                rec(t, i - 1, j, out);
            } else if t.cell(i, j).abs() == t.cell(i, j - 1).abs() {
                rec(t, i, j - 1, out);
            } else {
                rec(t, i - 1, j - 1, out);
                out.push(t.query[i - 1].clone());
            }
        }
        let mut out = Vec::new();
        rec(self, self.rows() - 1, self.cols - 1, &mut out);
        out
    }

    /// Number of boundary (non-dummy) symbols in the reconstructed LCS —
    /// the "objects and relations actually shared" count used by the
    /// boundary-only similarity normalisation.
    #[must_use]
    pub fn boundary_length(&self) -> usize {
        let mut count = 0;
        traceback(&self.w, self.cols, |i| {
            count += usize::from(self.query[i].is_boundary());
        });
        count
    }

    /// Renders the signed inference table for inspection — the exact `W`
    /// of the paper's Algorithm 2, with negative entries marking cells
    /// whose canonical LCS ends in a dummy object.
    ///
    /// Intended for teaching/debugging on small strings; the output is
    /// `(m+1) × (n+1)` cells wide, so keep inputs short.
    #[must_use]
    pub fn render(&self, database: &BeString) -> String {
        let mut out = String::new();
        // header row: database symbols
        out.push_str(&format!("{:>6}{:>5}", "", "-"));
        for d in database.symbols() {
            out.push_str(&format!("{:>5}", d.to_string()));
        }
        out.push('\n');
        for i in 0..self.rows() {
            let label = if i == 0 {
                "-".to_owned()
            } else {
                self.query[i - 1].to_string()
            };
            out.push_str(&format!("{label:>6}"));
            for j in 0..self.cols {
                out.push_str(&format!("{:>5}", self.cell(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

/// Convenience wrapper: LCS length of two BE-strings (Algorithm 2).
///
/// ```
/// use be2d_core::{be_lcs_length, BeString};
///
/// let a: BeString = "E A_b E A_e E".parse()?;
/// let b: BeString = "A_b E A_e".parse()?;
/// assert_eq!(be_lcs_length(&a, &b), 3);
/// # Ok::<(), be2d_core::BeStringError>(())
/// ```
#[must_use]
pub fn be_lcs_length(query: &BeString, database: &BeString) -> usize {
    LcsTable::build(query, database).length()
}

/// Exact reference for the constrained LCS problem the paper's Algorithm
/// 2 targets: the longest common subsequence **with no two consecutive
/// dummy objects**, computed by dynamic programming over the state
/// `(i, j, last-symbol-was-ε)`.
///
/// Algorithm 2 tracks the ε-tail with a *sign bit on a single canonical
/// value per cell*, which can under-approximate: when a cell's maximal
/// LCS ends in ε but an equally long one ends in a boundary symbol, the
/// signed table remembers only one of them and may refuse a later ε
/// extension that the other would have allowed. This reference keeps
/// both states, so
/// `LcsTable::build(q, d).length() <= exact_constrained_lcs_length(q, d)`
/// always holds (property-tested), and the `exp_lcs_gap` experiment
/// measures how often and how far the heuristic falls short in practice.
///
/// O(mn) time and space, like Algorithm 2, with a 2× constant factor.
///
/// # Example
///
/// ```
/// use be2d_core::{exact_constrained_lcs_length, be_lcs_length, BeString};
///
/// let a: BeString = "E A_b E A_e E".parse()?;
/// let b: BeString = "E A_b E A_e E".parse()?;
/// assert_eq!(exact_constrained_lcs_length(&a, &b), 5);
/// assert!(be_lcs_length(&a, &b) <= exact_constrained_lcs_length(&a, &b));
/// # Ok::<(), be2d_core::BeStringError>(())
/// ```
#[must_use]
pub fn exact_constrained_lcs_length(query: &BeString, database: &BeString) -> usize {
    let q = query.symbols();
    let d = database.symbols();
    let (m, n) = (q.len(), d.len());
    let cols = n + 1;
    const NEG: i32 = i32::MIN / 2; // "state unreachable" sentinel
                                   // best[k][i][j]: longest constrained common subsequence of the
                                   // prefixes whose last picked symbol is a boundary (k = 0) or a dummy
                                   // (k = 1); the empty subsequence counts as boundary-tailed.
    let mut bound = vec![0i32; (m + 1) * cols];
    let mut dummy = vec![NEG; (m + 1) * cols];
    for i in 1..=m {
        let qi = &q[i - 1];
        let qi_is_dummy = qi.is_dummy();
        for j in 1..=n {
            let here = i * cols + j;
            let up = (i - 1) * cols + j;
            let left = i * cols + (j - 1);
            let diag = (i - 1) * cols + (j - 1);
            let mut b = bound[up].max(bound[left]);
            let mut e = dummy[up].max(dummy[left]);
            if qi == &d[j - 1] {
                if qi_is_dummy {
                    // extending with ε requires a boundary-tailed LCS
                    if bound[diag] >= 0 {
                        e = e.max(bound[diag] + 1);
                    }
                } else {
                    // boundary symbols extend either tail state
                    b = b.max(bound[diag].max(dummy[diag]) + 1);
                }
            }
            bound[here] = b;
            dummy[here] = e;
        }
    }
    let last = m * cols + n;
    bound[last].max(dummy[last]).max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Boundary;

    fn s(text: &str) -> BeString {
        text.parse().unwrap()
    }

    fn is_subsequence(needle: &[BeSymbol], hay: &[BeSymbol]) -> bool {
        let mut it = hay.iter();
        needle.iter().all(|n| it.any(|h| h == n))
    }

    #[test]
    fn identical_strings_match_fully() {
        let a = s("E A_b E B_b E A_e C_b E C_e E B_e E");
        let t = LcsTable::build(&a, &a);
        assert_eq!(t.length(), a.len());
        assert_eq!(t.lcs_string(), a.symbols());
    }

    #[test]
    fn disjoint_alphabets_share_only_dummies() {
        let a = s("E A_b E A_e E");
        let b = s("E B_b E B_e E");
        // Only single (non-consecutive) dummies can match; the best common
        // subsequence alternates at most around boundary symbols, and with
        // no shared boundary symbol only one dummy can ever be picked.
        assert_eq!(be_lcs_length(&a, &b), 1);
    }

    #[test]
    fn dummy_only_match_cannot_chain() {
        let a = s("E A_b E A_e E B_b E B_e E");
        let b = s("E C_b E C_e E D_b E D_e E");
        // five dummies on each side, but consecutive dummy picks are
        // forbidden, and with no boundary symbol in between the LCS is 1.
        assert_eq!(be_lcs_length(&a, &b), 1);
    }

    #[test]
    fn dummies_may_alternate_with_boundaries() {
        let a = s("E A_b E A_e E");
        let b = s("E A_b E A_e E");
        assert_eq!(be_lcs_length(&a, &b), 5, "E A_b E A_e E is a legal LCS");
    }

    #[test]
    fn partial_object_overlap() {
        // Query: A and B with a gap. Database: A, C, B.
        let q = s("E A_b E A_e E B_b E B_e E");
        let d = s("E A_b E A_e C_b E C_e E B_b E B_e E");
        let t = LcsTable::build(&q, &d);
        // whole query embeds: every query symbol appears in order in d
        assert_eq!(t.length(), q.len());
        assert!(is_subsequence(&t.lcs_string(), d.symbols()));
    }

    #[test]
    fn relation_change_reduces_score() {
        // same objects, different relation (B left of A vs A left of B)
        let q = s("E A_b E A_e E B_b E B_e E");
        let d = s("E B_b E B_e E A_b E A_e E");
        let len = be_lcs_length(&q, &d);
        assert!(len < q.len(), "different order must not match fully");
        // A's pair or B's pair still matches with interleaved dummies:
        // E A_b E A_e E (5)
        assert_eq!(len, 5);
    }

    #[test]
    fn lengths_symmetric() {
        let q = s("E A_b E B_b E A_e C_b E C_e E B_e E");
        let d = s("E B_b E A_b E B_e C_b E C_e E A_e E");
        assert_eq!(be_lcs_length(&q, &d), be_lcs_length(&d, &q));
    }

    #[test]
    fn length_bounded_by_shorter_string() {
        let q = s("E A_b E A_e E");
        let d = s("E A_b E B_b E A_e C_b E C_e E B_e E");
        assert!(be_lcs_length(&q, &d) <= q.len().min(d.len()));
    }

    #[test]
    fn reconstruction_matches_reported_length_and_is_common() {
        let q = s("E A_b E B_b E A_e C_b E C_e E B_e E");
        let d = s("E B_b E A_b E B_e C_b E C_e E A_e E");
        let t = LcsTable::build(&q, &d);
        let lcs = t.lcs_string();
        assert_eq!(lcs.len(), t.length());
        assert!(is_subsequence(&lcs, q.symbols()));
        assert!(is_subsequence(&lcs, d.symbols()));
    }

    #[test]
    fn reconstruction_never_has_adjacent_dummies() {
        let q = s("E A_b E B_b E A_e C_b E C_e E B_e E");
        let d = s("E C_b E C_e E A_b E A_e E B_b E B_e E");
        let lcs = LcsTable::build(&q, &d).lcs_string();
        assert!(
            lcs.windows(2)
                .all(|w| !(w[0].is_dummy() && w[1].is_dummy())),
            "no two consecutive dummies: {lcs:?}"
        );
    }

    #[test]
    fn recursive_and_iterative_reconstruction_agree() {
        let pairs = [
            ("E A_b E A_e E", "E A_b E A_e E"),
            (
                "E A_b E B_b E A_e C_b E C_e E B_e E",
                "E B_b E A_b E B_e C_b E C_e E A_e E",
            ),
            ("A_b E A_e", "E A_b E A_e E"),
            ("E A_b E A_e E", "E B_b E B_e E"),
        ];
        for (a, b) in pairs {
            let t = LcsTable::build(&s(a), &s(b));
            assert_eq!(t.lcs_string(), t.lcs_string_recursive(), "{a} vs {b}");
        }
    }

    #[test]
    fn table_shape_matches_paper() {
        // strings of an m-object image have ≤ 4m+1 symbols; the table is
        // (len_q + 1) × (len_d + 1).
        let q = s("E A_b E A_e E");
        let d = s("E A_b E B_b E A_e C_b E C_e E B_e E");
        let t = LcsTable::build(&q, &d);
        assert_eq!(t.rows(), q.len() + 1);
        assert_eq!(t.cols(), d.len() + 1);
        // first row/column all zero
        for i in 0..t.rows() {
            assert_eq!(t.cell(i, 0), 0);
        }
        for j in 0..t.cols() {
            assert_eq!(t.cell(0, j), 0);
        }
    }

    #[test]
    fn sign_tracks_dummy_tail() {
        let q = s("A_b E A_e");
        let d = s("A_b E A_e");
        let t = LcsTable::build(&q, &d);
        // cell (2,2): LCS of "A_b E" and "A_b E" = "A_b E", ends with ε -> negative
        assert_eq!(t.cell(2, 2), -2);
        // cell (3,3): full match length 3, ends with boundary -> positive
        assert_eq!(t.cell(3, 3), 3);
    }

    #[test]
    fn boundary_length_excludes_dummies() {
        let q = s("E A_b E A_e E");
        let t = LcsTable::build(&q, &q);
        assert_eq!(t.length(), 5);
        assert_eq!(t.boundary_length(), 2);
    }

    #[test]
    fn empty_axis_queries() {
        let e = BeString::empty_axis();
        let d = s("E A_b E A_e E");
        assert_eq!(be_lcs_length(&e, &d), 1, "the single dummy matches");
        assert_eq!(be_lcs_length(&e, &e), 1);
    }

    #[test]
    fn mirrored_pair_keeps_palindromic_score() {
        // mirroring both strings preserves LCS length
        let q = s("E A_b E B_b E A_e C_b E C_e E B_e E");
        let d = s("E B_b E A_b E B_e C_b E C_e E A_e E");
        assert_eq!(
            be_lcs_length(&q, &d),
            be_lcs_length(&q.mirrored(), &d.mirrored()),
            "mirroring is a bijection on common subsequences"
        );
    }

    #[test]
    fn render_shows_table_with_signs() {
        let q = s("A_b E A_e");
        let t = LcsTable::build(&q, &q);
        let rendered = t.render(&q);
        // header + 4 rows
        assert_eq!(rendered.lines().count(), 5);
        assert!(rendered.contains("A_b"));
        assert!(rendered.contains("-2"), "negative dummy-tail cell visible");
        assert!(rendered
            .lines()
            .last()
            .expect("rows")
            .trim_end()
            .ends_with('3'));
    }

    #[test]
    fn exact_reference_matches_known_cases() {
        let cases = [
            ("E A_b E A_e E", "E A_b E A_e E", 5),
            ("E A_b E A_e E", "E B_b E B_e E", 1),
            ("A_b E A_e", "A_b E A_e", 3),
            ("E A_b E A_e E B_b E B_e E", "E C_b E C_e E D_b E D_e E", 1),
        ];
        for (a, b, expected) in cases {
            assert_eq!(
                exact_constrained_lcs_length(&s(a), &s(b)),
                expected,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn exact_reference_dominates_paper_dp() {
        let strings = [
            "E A_b E A_e E",
            "E A_b E B_b E A_e C_b E C_e E B_e E",
            "E B_b E A_b E B_e C_b E C_e E A_e E",
            "A_b E A_e B_b E B_e",
            "E C_b E C_e E A_b E A_e E B_b E B_e E",
        ];
        for a in &strings {
            for b in &strings {
                let paper = be_lcs_length(&s(a), &s(b));
                let exact = exact_constrained_lcs_length(&s(a), &s(b));
                assert!(paper <= exact, "{a} vs {b}: paper {paper} > exact {exact}");
            }
        }
    }

    #[test]
    fn exact_reference_is_symmetric_and_bounded() {
        let a = s("E A_b E B_b E A_e C_b E C_e E B_e E");
        let b = s("E C_b E C_e E A_b E A_e E B_b E B_e E");
        assert_eq!(
            exact_constrained_lcs_length(&a, &b),
            exact_constrained_lcs_length(&b, &a)
        );
        assert!(exact_constrained_lcs_length(&a, &b) <= a.len().min(b.len()));
        assert_eq!(exact_constrained_lcs_length(&a, &a), a.len());
    }

    #[test]
    fn same_class_begin_end_are_distinct_symbols() {
        let q = s("A_b E A_e");
        let d = s("E A_b E A_e E");
        let t = LcsTable::build(&q, &d);
        assert_eq!(t.length(), 3);
        let lcs = t.lcs_string();
        assert_eq!(lcs[0].boundary(), Some(Boundary::Begin));
        assert_eq!(lcs[2].boundary(), Some(Boundary::End));
    }
}
