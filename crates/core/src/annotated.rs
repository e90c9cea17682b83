//! Coordinate-annotated BE-strings: the stored form that supports the
//! paper's §3.2 maintenance operations.
//!
//! §3.2: *"Because the 2D BE-string is an order data, if we save the 2D
//! BE-string with their MBR coordinates, we can easy find the location to be
//! inserted for a new object and its MBR boundaries using binary search […]
//! When we want to drop an object […] delete it directly and eliminate the
//! redundant dummy object."*
//!
//! [`AnnotatedBeString`] stores exactly that: the ordered boundary events
//! with their coordinates plus the axis extent. The dummy objects are a
//! *function* of the coordinates (a dummy sits wherever two adjacent
//! boundary projections differ, and at the frame edges with free space), so
//! the materialised [`BeString`] view derives them on demand in O(n) —
//! keeping the dummy-placement rule of Algorithm 1 in one place while edits
//! stay binary-search + splice, never a full re-sort.

use crate::{BeString, BeString2D, BeStringError, BeSymbol, Boundary};
use be2d_geometry::{ObjectClass, Rect, Scene, Transform};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// One boundary of one object projected onto an axis, with its coordinate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BoundaryEvent {
    /// Projection coordinate of the boundary.
    pub coord: i64,
    /// Class of the object the boundary belongs to.
    pub class: ObjectClass,
    /// Which MBR boundary this is.
    pub boundary: Boundary,
}

impl BoundaryEvent {
    /// Creates a boundary event.
    #[must_use]
    pub const fn new(coord: i64, class: ObjectClass, boundary: Boundary) -> Self {
        BoundaryEvent {
            coord,
            class,
            boundary,
        }
    }

    /// The symbol this event contributes within a same-coordinate group
    /// has no geometric meaning (no dummy separates the group), but the
    /// LCS is order-sensitive, so a canonical tie-break is required — and
    /// the §4 reversal claim requires that tie-break to be
    /// **mirror-symmetric**: flipping begin↔end must exactly reverse the
    /// order. End boundaries sort before begin boundaries (objects close
    /// before new ones open, matching the Figure 1 example), with class
    /// names ascending among ends and descending among begins — `flip` is
    /// then order-reversing, which the `mirrored` tests verify.
    fn group_rank(&self) -> u8 {
        match self.boundary {
            Boundary::End => 0,
            Boundary::Begin => 1,
        }
    }

    /// The symbol this event contributes to the materialised string.
    #[must_use]
    pub fn symbol(&self) -> BeSymbol {
        BeSymbol::Bound {
            class: self.class.clone(),
            boundary: self.boundary,
        }
    }
}

impl fmt::Display for BoundaryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}@{}", self.class, self.boundary, self.coord)
    }
}

fn cmp_events(a: &BoundaryEvent, b: &BoundaryEvent) -> Ordering {
    a.coord
        .cmp(&b.coord)
        .then_with(|| a.group_rank().cmp(&b.group_rank()))
        .then_with(|| match a.boundary {
            Boundary::End => a.class.name().cmp(b.class.name()),
            Boundary::Begin => b.class.name().cmp(a.class.name()),
        })
}

/// A one-axis BE-string stored with its boundary coordinates (§3.2).
///
/// Invariants (enforced by every constructor and edit):
///
/// * all coordinates lie in `[0, extent]`;
/// * events are sorted by coordinate, with the mirror-symmetric tie-break
///   described on [`BoundaryEvent`] (ends before begins; class ascending
///   among ends, descending among begins);
/// * per class, begins and ends are balanced and every prefix has at least
///   as many begins as ends.
///
/// # Example
///
/// ```
/// use be2d_core::{AnnotatedBeString, Boundary};
/// use be2d_geometry::ObjectClass;
///
/// let mut s = AnnotatedBeString::new(100)?;
/// s.insert_object(ObjectClass::new("A"), 10, 50)?;
/// s.insert_object(ObjectClass::new("B"), 50, 90)?;
/// assert_eq!(s.to_be_string().to_string(), "E A_b E A_e B_b E B_e E");
/// # Ok::<(), be2d_core::BeStringError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnotatedBeString {
    events: Vec<BoundaryEvent>,
    extent: i64,
}

impl AnnotatedBeString {
    /// Creates an empty annotated string for an axis of the given extent.
    ///
    /// # Errors
    ///
    /// Returns [`BeStringError::OutOfExtent`] when `extent` is not positive.
    pub fn new(extent: i64) -> Result<Self, BeStringError> {
        if extent <= 0 {
            return Err(BeStringError::OutOfExtent { coord: 0, extent });
        }
        Ok(AnnotatedBeString {
            events: Vec::new(),
            extent,
        })
    }

    /// Builds an annotated string from unsorted events (Algorithm 1 lines
    /// 14–19: combine coordinate and identifier as key, sort ascending).
    ///
    /// # Errors
    ///
    /// Returns an error when a coordinate is outside `[0, extent]` or the
    /// begin/end events are not balanced per class.
    pub fn from_events(mut events: Vec<BoundaryEvent>, extent: i64) -> Result<Self, BeStringError> {
        if extent <= 0 {
            return Err(BeStringError::OutOfExtent { coord: 0, extent });
        }
        for e in &events {
            if e.coord < 0 || e.coord > extent {
                return Err(BeStringError::OutOfExtent {
                    coord: e.coord,
                    extent,
                });
            }
        }
        events.sort_by(cmp_events);
        let s = AnnotatedBeString { events, extent };
        s.check_balance()?;
        Ok(s)
    }

    fn check_balance(&self) -> Result<(), BeStringError> {
        use std::collections::HashMap;
        let mut balance: HashMap<&ObjectClass, i64> = HashMap::new();
        for e in &self.events {
            let v = balance.entry(&e.class).or_insert(0);
            match e.boundary {
                Boundary::Begin => *v += 1,
                Boundary::End => {
                    *v -= 1;
                    if *v < 0 {
                        return Err(BeStringError::InvalidString {
                            reason: format!("end of class {} precedes its begin", e.class),
                        });
                    }
                }
            }
        }
        if balance.values().any(|v| *v != 0) {
            return Err(BeStringError::InvalidString {
                reason: "unbalanced begin/end events".into(),
            });
        }
        Ok(())
    }

    /// The axis extent (the paper's `X_max`/`Y_max`).
    #[must_use]
    pub const fn extent(&self) -> i64 {
        self.extent
    }

    /// The sorted boundary events.
    #[must_use]
    pub fn events(&self) -> &[BoundaryEvent] {
        &self.events
    }

    /// Number of objects represented on this axis.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.events.len() / 2
    }

    /// Inserts one boundary event at its sorted position.
    ///
    /// Position lookup is a binary search (O(log n)); the splice is O(n) —
    /// the §3.2 maintenance cost, cheaper than re-running the O(n log n)
    /// conversion.
    ///
    /// # Errors
    ///
    /// Returns [`BeStringError::OutOfExtent`] for coordinates outside
    /// `[0, extent]`.
    pub fn insert_boundary(
        &mut self,
        class: ObjectClass,
        boundary: Boundary,
        coord: i64,
    ) -> Result<(), BeStringError> {
        if coord < 0 || coord > self.extent {
            return Err(BeStringError::OutOfExtent {
                coord,
                extent: self.extent,
            });
        }
        let ev = BoundaryEvent::new(coord, class, boundary);
        let pos = self
            .events
            .partition_point(|e| cmp_events(e, &ev) != Ordering::Greater);
        self.events.insert(pos, ev);
        Ok(())
    }

    /// Inserts a whole object (its begin and end boundary) on this axis.
    ///
    /// # Errors
    ///
    /// Returns [`BeStringError::InvalidString`] when `begin >= end`, or
    /// [`BeStringError::OutOfExtent`] when either coordinate is outside the
    /// frame; the string is unchanged on error.
    pub fn insert_object(
        &mut self,
        class: ObjectClass,
        begin: i64,
        end: i64,
    ) -> Result<(), BeStringError> {
        if begin >= end {
            return Err(BeStringError::InvalidString {
                reason: format!("object extent [{begin}, {end}) is empty"),
            });
        }
        if begin < 0 || end > self.extent {
            let coord = if begin < 0 { begin } else { end };
            return Err(BeStringError::OutOfExtent {
                coord,
                extent: self.extent,
            });
        }
        self.insert_boundary(class.clone(), Boundary::Begin, begin)?;
        self.insert_boundary(class, Boundary::End, end)?;
        Ok(())
    }

    /// Removes one object identified by class and boundary coordinates
    /// (the §3.2 drop operation).
    ///
    /// When several same-class objects share the exact boundary pair, one
    /// of them is removed (they are indistinguishable in the model).
    ///
    /// # Errors
    ///
    /// Returns [`BeStringError::ObjectNotFound`] when no matching pair of
    /// events exists; the string is unchanged on error.
    pub fn remove_object(
        &mut self,
        class: &ObjectClass,
        begin: i64,
        end: i64,
    ) -> Result<(), BeStringError> {
        let not_found = || BeStringError::ObjectNotFound {
            class: class.name().to_owned(),
            begin,
            end,
        };
        let b = self
            .find_event(class, Boundary::Begin, begin)
            .ok_or_else(not_found)?;
        let e = self
            .find_event(class, Boundary::End, end)
            .ok_or_else(not_found)?;
        // Remove the later index first so the earlier index stays valid.
        let (first, second) = if b < e { (b, e) } else { (e, b) };
        self.events.remove(second);
        self.events.remove(first);
        Ok(())
    }

    /// Binary-searches for an event with the exact `(coord, class,
    /// boundary)` key, returning its index.
    fn find_event(&self, class: &ObjectClass, boundary: Boundary, coord: i64) -> Option<usize> {
        let probe = BoundaryEvent::new(coord, class.clone(), boundary);
        let idx = self
            .events
            .partition_point(|e| cmp_events(e, &probe) == Ordering::Less);
        (idx < self.events.len() && cmp_events(&self.events[idx], &probe) == Ordering::Equal)
            .then_some(idx)
    }

    /// Whether an object with this class and boundary pair is present.
    #[must_use]
    pub fn contains_object(&self, class: &ObjectClass, begin: i64, end: i64) -> bool {
        self.find_event(class, Boundary::Begin, begin).is_some()
            && self.find_event(class, Boundary::End, end).is_some()
    }

    /// Materialises the BE-string view, deriving the dummy objects
    /// (Algorithm 1 lines 21–32 / 34–45): one before the first boundary
    /// symbol when its coordinate is `> 0`, one between two consecutive
    /// boundary symbols whose coordinates differ, and one after the last
    /// boundary symbol when its coordinate is `< extent`.
    ///
    /// The empty axis materialises to the single dummy `E`.
    #[must_use]
    pub fn to_be_string(&self) -> BeString {
        let mut out = Vec::with_capacity(2 * self.events.len() + 1);
        self.walk_symbols(|event| out.push(event.map_or(BeSymbol::Dummy, BoundaryEvent::symbol)));
        BeString::from_symbols_unchecked(out)
    }

    /// Walks the materialised string in order without building it:
    /// `emit(Some(event))` for a boundary symbol, `emit(None)` for a
    /// dummy. This is the one home of the dummy-placement rule; both
    /// [`to_be_string`](Self::to_be_string) and the exact scorer's
    /// integer encoder are built on it.
    ///
    /// A dummy is emitted:
    /// * before the first boundary symbol when its coordinate is `> 0`
    ///   ("insert E at the leftmost");
    /// * between two consecutive boundary symbols when their coordinates
    ///   differ;
    /// * after the last boundary symbol when its coordinate is `< extent`
    ///   ("insert E at the rightmost");
    /// * once, alone, for the empty axis.
    pub(crate) fn walk_symbols<'a>(&'a self, mut emit: impl FnMut(Option<&'a BoundaryEvent>)) {
        let Some(first) = self.events.first() else {
            emit(None);
            return;
        };
        if first.coord > 0 {
            emit(None);
        }
        for (i, e) in self.events.iter().enumerate() {
            emit(Some(e));
            let gap = match self.events.get(i + 1) {
                Some(next) => next.coord != e.coord,
                None => e.coord < self.extent,
            };
            if gap {
                emit(None);
            }
        }
    }

    /// Number of symbols the materialised string will have, in O(n)
    /// without allocating.
    #[must_use]
    pub fn symbol_len(&self) -> usize {
        let mut len = 0;
        self.walk_symbols(|_| len += 1);
        len
    }

    /// The mirrored axis (`coord ↦ extent − coord`): order reversed,
    /// begin/end swapped, same extent.
    #[must_use]
    pub fn mirrored(&self) -> AnnotatedBeString {
        let events = self
            .events
            .iter()
            .rev()
            .map(|e| {
                BoundaryEvent::new(self.extent - e.coord, e.class.clone(), e.boundary.flipped())
            })
            .collect();
        let out = AnnotatedBeString {
            events,
            extent: self.extent,
        };
        debug_assert!(out.is_sorted());
        out
    }

    fn is_sorted(&self) -> bool {
        self.events
            .windows(2)
            .all(|w| cmp_events(&w[0], &w[1]) != Ordering::Greater)
    }
}

impl fmt::Display for AnnotatedBeString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_be_string())
    }
}

/// A symbolic picture: both annotated axis strings of one image (§3.2).
///
/// This is the unit stored in an image database: it materialises to a
/// [`BeString2D`] for similarity retrieval and supports the incremental
/// object insert/drop of §3.2.
///
/// # Example
///
/// ```
/// use be2d_core::SymbolicImage;
/// use be2d_geometry::{SceneBuilder, ObjectClass, Rect};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scene = SceneBuilder::new(100, 100)
///     .object("A", (10, 50, 25, 85))
///     .build()?;
/// let mut img = SymbolicImage::from_scene(&scene);
/// img.add_object(&ObjectClass::new("B"), Rect::new(30, 90, 5, 45)?)?;
/// assert_eq!(img.object_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolicImage {
    x: AnnotatedBeString,
    y: AnnotatedBeString,
}

impl SymbolicImage {
    /// Builds the symbolic picture of a scene — the end-to-end Algorithm 1.
    ///
    /// Sorting dominates: O(n log n) time, O(n) space.
    #[must_use]
    pub fn from_scene(scene: &Scene) -> SymbolicImage {
        let mut xs = Vec::with_capacity(2 * scene.len());
        let mut ys = Vec::with_capacity(2 * scene.len());
        for obj in scene {
            let (class, mbr) = (obj.class().clone(), obj.mbr());
            xs.push(BoundaryEvent::new(
                mbr.x_begin(),
                class.clone(),
                Boundary::Begin,
            ));
            xs.push(BoundaryEvent::new(
                mbr.x_end(),
                class.clone(),
                Boundary::End,
            ));
            ys.push(BoundaryEvent::new(
                mbr.y_begin(),
                class.clone(),
                Boundary::Begin,
            ));
            ys.push(BoundaryEvent::new(mbr.y_end(), class, Boundary::End));
        }
        let x = AnnotatedBeString::from_events(xs, scene.width())
            .expect("scene objects are validated in-frame");
        let y = AnnotatedBeString::from_events(ys, scene.height())
            .expect("scene objects are validated in-frame");
        SymbolicImage { x, y }
    }

    /// Creates an empty symbolic picture with the given frame size.
    ///
    /// # Errors
    ///
    /// Returns [`BeStringError::OutOfExtent`] for non-positive dimensions.
    pub fn empty(width: i64, height: i64) -> Result<SymbolicImage, BeStringError> {
        Ok(SymbolicImage {
            x: AnnotatedBeString::new(width)?,
            y: AnnotatedBeString::new(height)?,
        })
    }

    /// Combines two annotated axes.
    ///
    /// # Errors
    ///
    /// Returns [`BeStringError::InvalidString`] when the axes carry
    /// different object multisets.
    pub fn from_axes(
        x: AnnotatedBeString,
        y: AnnotatedBeString,
    ) -> Result<SymbolicImage, BeStringError> {
        let count = |s: &AnnotatedBeString| {
            let mut v: Vec<_> = s
                .events()
                .iter()
                .filter(|e| e.boundary == Boundary::Begin)
                .map(|e| e.class.clone())
                .collect();
            v.sort();
            v
        };
        if count(&x) != count(&y) {
            return Err(BeStringError::InvalidString {
                reason: "x and y axes describe different object multisets".into(),
            });
        }
        Ok(SymbolicImage { x, y })
    }

    /// The annotated x-axis.
    #[must_use]
    pub fn x(&self) -> &AnnotatedBeString {
        &self.x
    }

    /// The annotated y-axis.
    #[must_use]
    pub fn y(&self) -> &AnnotatedBeString {
        &self.y
    }

    /// Frame width.
    #[must_use]
    pub const fn width(&self) -> i64 {
        self.x.extent()
    }

    /// Frame height.
    #[must_use]
    pub const fn height(&self) -> i64 {
        self.y.extent()
    }

    /// Number of objects in the picture.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.x.object_count()
    }

    /// Materialises the 2D BE-string `(u, v)`.
    #[must_use]
    pub fn to_be_string_2d(&self) -> BeString2D {
        BeString2D::new_unchecked(self.x.to_be_string(), self.y.to_be_string())
    }

    /// Inserts an object incrementally (§3.2), by binary search on both
    /// axes.
    ///
    /// # Errors
    ///
    /// Returns an error when the MBR does not fit the frame; the picture is
    /// unchanged on error.
    pub fn add_object(&mut self, class: &ObjectClass, mbr: Rect) -> Result<(), BeStringError> {
        if mbr.x_begin() < 0 || mbr.x_end() > self.width() {
            return Err(BeStringError::OutOfExtent {
                coord: if mbr.x_begin() < 0 {
                    mbr.x_begin()
                } else {
                    mbr.x_end()
                },
                extent: self.width(),
            });
        }
        if mbr.y_begin() < 0 || mbr.y_end() > self.height() {
            return Err(BeStringError::OutOfExtent {
                coord: if mbr.y_begin() < 0 {
                    mbr.y_begin()
                } else {
                    mbr.y_end()
                },
                extent: self.height(),
            });
        }
        self.x
            .insert_object(class.clone(), mbr.x_begin(), mbr.x_end())?;
        self.y
            .insert_object(class.clone(), mbr.y_begin(), mbr.y_end())?;
        Ok(())
    }

    /// Drops an object incrementally (§3.2).
    ///
    /// # Errors
    ///
    /// Returns [`BeStringError::ObjectNotFound`] when no object with this
    /// class and MBR exists; on error the picture is unchanged.
    pub fn remove_object(&mut self, class: &ObjectClass, mbr: Rect) -> Result<(), BeStringError> {
        if !self.x.contains_object(class, mbr.x_begin(), mbr.x_end())
            || !self.y.contains_object(class, mbr.y_begin(), mbr.y_end())
        {
            return Err(BeStringError::ObjectNotFound {
                class: class.name().to_owned(),
                begin: mbr.x_begin(),
                end: mbr.x_end(),
            });
        }
        self.x.remove_object(class, mbr.x_begin(), mbr.x_end())?;
        self.y.remove_object(class, mbr.y_begin(), mbr.y_end())?;
        Ok(())
    }

    /// Applies a D4 transform to the symbolic picture (the annotated
    /// equivalent of the §4 string reversal).
    #[must_use]
    pub fn transformed(&self, t: Transform) -> SymbolicImage {
        let (x, y) = match t {
            Transform::Identity => (self.x.clone(), self.y.clone()),
            Transform::Rotate90 => (self.y.clone(), self.x.mirrored()),
            Transform::Rotate180 => (self.x.mirrored(), self.y.mirrored()),
            Transform::Rotate270 => (self.y.mirrored(), self.x.clone()),
            Transform::ReflectX => (self.x.clone(), self.y.mirrored()),
            Transform::ReflectY => (self.x.mirrored(), self.y.clone()),
            Transform::Transpose => (self.y.clone(), self.x.clone()),
            Transform::AntiTranspose => (self.y.mirrored(), self.x.mirrored()),
        };
        SymbolicImage { x, y }
    }
}

impl fmt::Display for SymbolicImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use be2d_geometry::SceneBuilder;

    fn class(name: &str) -> ObjectClass {
        ObjectClass::new(name)
    }

    #[test]
    fn empty_axis_materialises_to_single_dummy() {
        let s = AnnotatedBeString::new(100).unwrap();
        assert_eq!(s.to_be_string().to_string(), "E");
        assert_eq!(s.symbol_len(), 1);
        assert_eq!(s.object_count(), 0);
    }

    #[test]
    fn rejects_bad_extent_and_coords() {
        assert!(AnnotatedBeString::new(0).is_err());
        let mut s = AnnotatedBeString::new(10).unwrap();
        assert!(s.insert_boundary(class("A"), Boundary::Begin, -1).is_err());
        assert!(s.insert_boundary(class("A"), Boundary::Begin, 11).is_err());
        assert!(s.insert_object(class("A"), 5, 5).is_err());
        assert!(s.insert_object(class("A"), 5, 11).is_err());
    }

    #[test]
    fn materialisation_places_dummies_per_algorithm_1() {
        // A[10,50], B[50,90] in extent 100: leading E, E inside A, shared
        // boundary at 50 (no E), E inside B, trailing E.
        let mut s = AnnotatedBeString::new(100).unwrap();
        s.insert_object(class("A"), 10, 50).unwrap();
        s.insert_object(class("B"), 50, 90).unwrap();
        assert_eq!(s.to_be_string().to_string(), "E A_b E A_e B_b E B_e E");
        assert_eq!(s.symbol_len(), 8);
    }

    #[test]
    fn exact_fit_omits_edge_dummies() {
        let mut s = AnnotatedBeString::new(100).unwrap();
        s.insert_object(class("A"), 0, 100).unwrap();
        assert_eq!(s.to_be_string().to_string(), "A_b E A_e");
    }

    #[test]
    fn best_case_storage_is_2n_plus_1() {
        // n identical whole-frame objects: 2n + 1 symbols (§3.1 best case).
        let mut s = AnnotatedBeString::new(100).unwrap();
        for _ in 0..5 {
            s.insert_object(class("A"), 0, 100).unwrap();
        }
        assert_eq!(s.symbol_len(), 2 * 5 + 1);
        assert_eq!(s.to_be_string().len(), 11);
    }

    #[test]
    fn worst_case_storage_is_4n_plus_1() {
        // all boundaries distinct with free space everywhere (§3.1 worst case).
        let mut s = AnnotatedBeString::new(100).unwrap();
        s.insert_object(class("A"), 10, 20).unwrap();
        s.insert_object(class("B"), 30, 40).unwrap();
        s.insert_object(class("C"), 50, 60).unwrap();
        assert_eq!(s.symbol_len(), 4 * 3 + 1);
    }

    #[test]
    fn symbol_len_matches_materialisation() {
        let mut s = AnnotatedBeString::new(50).unwrap();
        for (c, b, e) in [("A", 0, 10), ("B", 10, 30), ("C", 5, 50), ("A", 20, 30)] {
            s.insert_object(class(c), b, e).unwrap();
            assert_eq!(s.symbol_len(), s.to_be_string().len());
        }
    }

    #[test]
    fn insert_keeps_sorted_order_with_ties() {
        let mut s = AnnotatedBeString::new(100).unwrap();
        s.insert_object(class("B"), 20, 40).unwrap();
        s.insert_object(class("A"), 20, 40).unwrap();
        // begins at the same coordinate sort by class descending, ends
        // ascending — the mirror-symmetric canonical order.
        let names: Vec<_> = s.events().iter().map(|e| e.to_string()).collect();
        assert_eq!(names, ["B_b@20", "A_b@20", "A_e@40", "B_e@40"]);
        // end-before-begin on exact coordinate ties.
        s.insert_object(class("A"), 40, 60).unwrap();
        let names: Vec<_> = s.events().iter().map(|e| e.to_string()).collect();
        assert_eq!(
            names,
            ["B_b@20", "A_b@20", "A_e@40", "B_e@40", "A_b@40", "A_e@60"]
        );
    }

    #[test]
    fn remove_object_and_errors() {
        let mut s = AnnotatedBeString::new(100).unwrap();
        s.insert_object(class("A"), 10, 50).unwrap();
        s.insert_object(class("B"), 50, 90).unwrap();
        assert!(s.contains_object(&class("A"), 10, 50));
        assert!(
            s.remove_object(&class("A"), 10, 51).is_err(),
            "wrong end coord"
        );
        s.remove_object(&class("A"), 10, 50).unwrap();
        assert!(!s.contains_object(&class("A"), 10, 50));
        assert_eq!(s.to_be_string().to_string(), "E B_b E B_e E");
        assert!(s.remove_object(&class("A"), 10, 50).is_err());
    }

    #[test]
    fn incremental_insert_equals_batch_conversion() {
        let scene = SceneBuilder::new(100, 100)
            .object("A", (10, 50, 25, 85))
            .object("B", (30, 90, 5, 45))
            .object("C", (50, 70, 45, 65))
            .build()
            .unwrap();
        let batch = SymbolicImage::from_scene(&scene);

        let mut incremental = SymbolicImage::empty(100, 100).unwrap();
        for obj in &scene {
            incremental.add_object(obj.class(), obj.mbr()).unwrap();
        }
        assert_eq!(batch, incremental);
        assert_eq!(batch.to_be_string_2d(), incremental.to_be_string_2d());
    }

    #[test]
    fn add_then_remove_restores() {
        let scene = SceneBuilder::new(100, 100)
            .object("A", (10, 50, 25, 85))
            .object("B", (30, 90, 5, 45))
            .build()
            .unwrap();
        let mut img = SymbolicImage::from_scene(&scene);
        let before = img.clone();
        let r = Rect::new(0, 99, 0, 99).unwrap();
        img.add_object(&class("Z"), r).unwrap();
        assert_ne!(img, before);
        img.remove_object(&class("Z"), r).unwrap();
        assert_eq!(img, before);
    }

    #[test]
    fn add_object_validates_frame() {
        let mut img = SymbolicImage::empty(50, 50).unwrap();
        assert!(img
            .add_object(&class("A"), Rect::new(0, 60, 0, 10).unwrap())
            .is_err());
        assert!(img
            .add_object(&class("A"), Rect::new(0, 10, 0, 60).unwrap())
            .is_err());
        // failed add must not leave a half-inserted x-axis
        assert_eq!(img.x().events().len(), 0);
        assert_eq!(img.y().events().len(), 0);
    }

    #[test]
    fn remove_object_is_atomic() {
        let mut img = SymbolicImage::empty(50, 50).unwrap();
        img.add_object(&class("A"), Rect::new(0, 10, 0, 10).unwrap())
            .unwrap();
        let before = img.clone();
        // x matches but y does not -> error, unchanged
        assert!(img
            .remove_object(&class("A"), Rect::new(0, 10, 0, 20).unwrap())
            .is_err());
        assert_eq!(img, before);
    }

    #[test]
    fn mirrored_axis_matches_geometric_mirror() {
        let mut s = AnnotatedBeString::new(100).unwrap();
        s.insert_object(class("A"), 10, 50).unwrap();
        s.insert_object(class("B"), 50, 90).unwrap();
        let m = s.mirrored();
        // geometric mirror: A -> [50,90], B -> [10,50]
        let mut expected = AnnotatedBeString::new(100).unwrap();
        expected.insert_object(class("A"), 50, 90).unwrap();
        expected.insert_object(class("B"), 10, 50).unwrap();
        assert_eq!(m, expected);
        assert_eq!(m.mirrored(), s);
    }

    #[test]
    fn from_axes_validates_multisets() {
        let mut x = AnnotatedBeString::new(10).unwrap();
        x.insert_object(class("A"), 0, 5).unwrap();
        let mut y_ok = AnnotatedBeString::new(10).unwrap();
        y_ok.insert_object(class("A"), 2, 8).unwrap();
        let y_bad = AnnotatedBeString::new(10).unwrap();
        assert!(SymbolicImage::from_axes(x.clone(), y_ok).is_ok());
        assert!(SymbolicImage::from_axes(x, y_bad).is_err());
    }

    #[test]
    fn from_events_validates() {
        let ev = |c: &str, b, coord| BoundaryEvent::new(coord, class(c), b);
        // unbalanced
        assert!(AnnotatedBeString::from_events(vec![ev("A", Boundary::Begin, 0)], 10).is_err());
        // end before begin
        assert!(AnnotatedBeString::from_events(
            vec![ev("A", Boundary::End, 0), ev("A", Boundary::Begin, 5)],
            10
        )
        .is_err());
        // out of extent
        assert!(AnnotatedBeString::from_events(
            vec![ev("A", Boundary::Begin, 0), ev("A", Boundary::End, 11)],
            10
        )
        .is_err());
        // unsorted input is sorted
        let s = AnnotatedBeString::from_events(
            vec![ev("A", Boundary::End, 7), ev("A", Boundary::Begin, 2)],
            10,
        )
        .unwrap();
        assert_eq!(s.to_be_string().to_string(), "E A_b E A_e E");
    }

    #[test]
    fn display_shows_materialised_string() {
        let mut s = AnnotatedBeString::new(10).unwrap();
        s.insert_object(class("A"), 0, 10).unwrap();
        assert_eq!(s.to_string(), "A_b E A_e");
        let img = SymbolicImage::from_axes(s.clone(), s).unwrap();
        assert_eq!(img.to_string(), "(A_b E A_e, A_b E A_e)");
    }
}
