//! Decomposition-graph construction (Definition 1 of the paper).

use crate::stitch::{split_at_stitches, split_candidate, StitchConfig};
use mpl_geometry::{GridIndex, Nm, Polygon, Rect};
use mpl_graph::Csr;
use mpl_layout::{Layout, ShapeId, Technology};
use std::fmt;

/// A vertex of the decomposition graph: one stitch segment of one layout
/// feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub usize);

impl VertexId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The decomposition graph `{V, CE, SE}` of a layout (Definition 1): one
/// vertex per stitch segment, a conflict edge for every pair of segments of
/// *different* features within the minimum coloring distance, and a stitch
/// edge between consecutive segments of the same feature.  Color-friendly
/// pairs (Definition 2) are recorded alongside.
///
/// # Example
///
/// ```
/// use mpl_core::{DecompositionGraph, StitchConfig};
/// use mpl_layout::{gen, Technology};
///
/// let tech = Technology::nm20();
/// let layout = gen::fig1_contact_clique(&tech);
/// let graph = DecompositionGraph::build(&layout, &tech, 4, &StitchConfig::default());
/// assert_eq!(graph.vertex_count(), 4);
/// assert_eq!(graph.conflict_edges().len(), 6); // K4
/// assert!(graph.stitch_edges().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DecompositionGraph {
    k: usize,
    min_s: Nm,
    shape_of: Vec<ShapeId>,
    rects: Vec<Rect>,
    conflict_edges: Vec<(usize, usize)>,
    stitch_edges: Vec<(usize, usize)>,
    color_friendly_pairs: Vec<(usize, usize)>,
    conflict_adjacency: Csr,
    stitch_adjacency: Csr,
    #[cfg(test)]
    work: BuildWork,
}

/// Hardware-independent work done by [`DecompositionGraph::build`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct BuildWork {
    /// Neighbour queries of the shape pass: one per splittable shape.
    shape_queries: usize,
    /// Candidates the segment pass examined (every segment within the
    /// color-friendly distance of a segment, itself included).
    segment_candidates: usize,
}

impl DecompositionGraph {
    /// Builds the decomposition graph of `layout` for `k`-patterning.
    ///
    /// The minimum coloring distance and the color-friendly band are derived
    /// from `technology` (see [`Technology::coloring_distance`]); stitch
    /// candidates are generated according to `stitch`.
    ///
    /// Two passes over flat [`GridIndex`]es with cells of the color-friendly
    /// distance:
    ///
    /// 1. *Shape pass.*  Every shape becomes one vertex per segment, in
    ///    layout order.  Only a shape that stitching could split (stitching
    ///    enabled, one rectangle, at least two minimum segments long) asks
    ///    the shape index for the rectangles of other shapes within
    ///    `min_s`, which cast the shadows that place its stitches;
    ///    consecutive segments of one shape are joined by stitch edges.
    /// 2. *Segment pass.*  For every vertex in order, the segment index
    ///    visits the segments within the color-friendly distance; each pair
    ///    of different shapes is recorded once, from its lower vertex, as a
    ///    conflict edge (distance `< min_s`) or a color-friendly pair.
    ///
    /// Edge lists come out in the index's visiting order (see
    /// [`GridIndex`]), which makes the graph — and every coloring computed
    /// from it — a deterministic function of the layout's shape order.
    pub fn build(
        layout: &Layout,
        technology: &Technology,
        k: usize,
        stitch: &StitchConfig,
    ) -> Self {
        let min_s = technology.coloring_distance(k);
        let friendly = technology.color_friendly_distance(k);
        let cell = friendly.max(Nm(1));
        #[cfg(test)]
        let mut work = BuildWork::default();

        // Pass 1: split every shape at its legal stitch positions, straight
        // into the vertex list.  The shape index is built on first use, so a
        // layout without splittable shapes never builds it.
        let mut shape_index: Option<GridIndex> = None;
        let mut shape_of: Vec<ShapeId> = Vec::with_capacity(layout.shape_count());
        let mut rects: Vec<Rect> = Vec::with_capacity(layout.shape_count());
        let mut stitch_edges: Vec<(usize, usize)> = Vec::new();
        let mut neighbors: Vec<Rect> = Vec::new();
        for shape in layout.iter() {
            neighbors.clear();
            if let Some(rect) = split_candidate(shape.polygon(), stitch) {
                let own = shape.id().index();
                shape_index
                    .get_or_insert_with(|| {
                        GridIndex::build(
                            cell,
                            layout.iter().flat_map(|shape| {
                                let id = shape.id().index();
                                shape.polygon().rects().iter().map(move |rect| (id, *rect))
                            }),
                        )
                    })
                    .visit_within(&rect, min_s, |id, other, _| {
                        if id != own {
                            neighbors.push(*other);
                        }
                    });
                #[cfg(test)]
                {
                    work.shape_queries += 1;
                }
            }
            let first_vertex = rects.len();
            split_at_stitches(shape.polygon(), &neighbors, min_s, stitch, &mut rects);
            for vertex in first_vertex..rects.len() {
                shape_of.push(shape.id());
                if vertex > first_vertex {
                    stitch_edges.push((vertex - 1, vertex));
                }
            }
        }

        // Pass 2: conflict edges and color-friendly pairs between segments of
        // different shapes, classified from the distance the index computed.
        let segment_index = GridIndex::build(cell, rects.iter().copied().enumerate());
        let min_s_squared = min_s.squared();
        let mut conflict_edges: Vec<(usize, usize)> = Vec::new();
        let mut color_friendly_pairs: Vec<(usize, usize)> = Vec::new();
        for (vertex, rect) in rects.iter().enumerate() {
            segment_index.visit_within(rect, friendly, |other, _, distance_squared| {
                #[cfg(test)]
                {
                    work.segment_candidates += 1;
                }
                if other <= vertex || shape_of[other] == shape_of[vertex] {
                    return;
                }
                if distance_squared < min_s_squared {
                    conflict_edges.push((vertex, other));
                } else {
                    color_friendly_pairs.push((vertex, other));
                }
            });
        }

        let n = rects.len();
        let conflict_adjacency = Csr::from_edges(n, &conflict_edges);
        let stitch_adjacency = Csr::from_edges(n, &stitch_edges);

        DecompositionGraph {
            k,
            min_s,
            shape_of,
            rects,
            conflict_edges,
            stitch_edges,
            color_friendly_pairs,
            conflict_adjacency,
            stitch_adjacency,
            #[cfg(test)]
            work,
        }
    }

    /// The patterning order K the graph was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimum coloring distance used for conflict edges.
    pub fn coloring_distance(&self) -> Nm {
        self.min_s
    }

    /// Number of vertices (stitch segments).
    pub fn vertex_count(&self) -> usize {
        self.rects.len()
    }

    /// The layout shape a vertex belongs to.
    pub fn shape_of(&self, vertex: VertexId) -> ShapeId {
        self.shape_of[vertex.index()]
    }

    /// The geometry of a vertex: every vertex is one rectangle.
    pub fn rect(&self, vertex: VertexId) -> Rect {
        self.rects[vertex.index()]
    }

    /// The geometry of a vertex as a one-rectangle polygon, built on each
    /// call; [`DecompositionGraph::rect`] reads it without allocating.
    pub fn polygon(&self, vertex: VertexId) -> Polygon {
        Polygon::rect(self.rect(vertex))
    }

    /// All conflict edges, as pairs of dense vertex indices.
    pub fn conflict_edges(&self) -> &[(usize, usize)] {
        &self.conflict_edges
    }

    /// All stitch edges.
    pub fn stitch_edges(&self) -> &[(usize, usize)] {
        &self.stitch_edges
    }

    /// All color-friendly pairs.
    pub fn color_friendly_pairs(&self) -> &[(usize, usize)] {
        &self.color_friendly_pairs
    }

    /// Conflict neighbours of a vertex.
    pub fn conflict_neighbors(&self, vertex: usize) -> &[usize] {
        self.conflict_adjacency.neighbors(vertex)
    }

    /// Stitch neighbours of a vertex.
    pub fn stitch_neighbors(&self, vertex: usize) -> &[usize] {
        self.stitch_adjacency.neighbors(vertex)
    }

    /// Conflict degree of a vertex.
    pub fn conflict_degree(&self, vertex: usize) -> usize {
        self.conflict_adjacency.degree(vertex)
    }

    /// Stitch degree of a vertex.
    pub fn stitch_degree(&self, vertex: usize) -> usize {
        self.stitch_adjacency.degree(vertex)
    }

    /// Vertices grouped into independent components (connected via either
    /// conflict or stitch edges) — the first graph-division technique.
    pub fn independent_components(&self) -> Vec<Vec<usize>> {
        let n = self.vertex_count();
        let mut label = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            if label[start] != usize::MAX {
                continue;
            }
            let id = groups.len();
            let mut group = Vec::new();
            let mut stack = vec![start];
            label[start] = id;
            while let Some(u) = stack.pop() {
                group.push(u);
                for &v in self
                    .conflict_adjacency
                    .neighbors(u)
                    .iter()
                    .chain(self.stitch_adjacency.neighbors(u).iter())
                {
                    if label[v] == usize::MAX {
                        label[v] = id;
                        stack.push(v);
                    }
                }
            }
            group.sort_unstable();
            groups.push(group);
        }
        groups
    }
}

impl fmt::Display for DecompositionGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DecompositionGraph(|V|={}, |CE|={}, |SE|={})",
            self.vertex_count(),
            self.conflict_edges.len(),
            self.stitch_edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_layout::gen;

    fn tech() -> Technology {
        Technology::nm20()
    }

    #[test]
    fn fig1_clique_is_a_k4() {
        let layout = gen::fig1_contact_clique(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.vertex_count(), 4);
        assert_eq!(graph.conflict_edges().len(), 6);
        assert!(graph.stitch_edges().is_empty());
        for v in 0..4 {
            assert_eq!(graph.conflict_degree(v), 3);
            assert_eq!(graph.stitch_degree(v), 0);
        }
    }

    #[test]
    fn k5_cluster_is_a_k5() {
        let layout = gen::k5_cluster_layout(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.vertex_count(), 5);
        assert_eq!(graph.conflict_edges().len(), 10);
    }

    #[test]
    fn distant_contacts_form_separate_components() {
        let mut builder = Layout::builder("two-islands");
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        builder.add_contact(Nm(40), Nm(0), Nm(20));
        builder.add_contact(Nm(1000), Nm(0), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.conflict_edges().len(), 1);
        let comps = graph.independent_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2]);
    }

    #[test]
    fn wire_near_contact_gains_a_stitch_segmentation() {
        let mut builder = Layout::builder("wire-and-contact");
        // A long wire with a single contact near its left end: the wire is
        // split into two stitch-connected segments.
        builder.add_rect(Rect::new(Nm(0), Nm(60), Nm(400), Nm(80)));
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.vertex_count(), 3);
        assert_eq!(graph.stitch_edges().len(), 1);
        // The contact conflicts with the near segment only.
        assert_eq!(graph.conflict_edges().len(), 1);
        // Both wire segments map back to the same layout shape.
        assert_eq!(graph.shape_of(VertexId(0)), graph.shape_of(VertexId(1)));
        assert_ne!(graph.shape_of(VertexId(0)), graph.shape_of(VertexId(2)));
    }

    #[test]
    fn stitch_disabled_keeps_one_vertex_per_shape() {
        let mut builder = Layout::builder("wire-and-contact");
        builder.add_rect(Rect::new(Nm(0), Nm(60), Nm(400), Nm(80)));
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::disabled());
        assert_eq!(graph.vertex_count(), 2);
        assert!(graph.stitch_edges().is_empty());
        assert_eq!(graph.conflict_edges().len(), 1);
    }

    #[test]
    fn color_friendly_pairs_sit_in_the_band() {
        let mut builder = Layout::builder("friendly");
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        // 90 nm away: beyond the 80 nm coloring distance but inside the
        // 100 nm color-friendly band.
        builder.add_contact(Nm(110), Nm(0), Nm(20));
        // 200 nm away: beyond both.
        builder.add_contact(Nm(320), Nm(0), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert!(graph.conflict_edges().is_empty());
        assert_eq!(graph.color_friendly_pairs(), &[(0, 1)]);
    }

    #[test]
    fn pentuple_distance_creates_more_conflicts() {
        let layout = gen::dense_parallel_lines(&tech(), 6, Nm(200));
        let quad = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::disabled());
        let penta = DecompositionGraph::build(&layout, &tech(), 5, &StitchConfig::disabled());
        assert!(penta.conflict_edges().len() > quad.conflict_edges().len());
        assert_eq!(penta.k(), 5);
        assert_eq!(quad.coloring_distance(), Nm(80));
        assert_eq!(penta.coloring_distance(), Nm(110));
    }

    #[test]
    fn empty_layout_builds_an_empty_graph() {
        let layout = Layout::builder("empty").build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.vertex_count(), 0);
        assert!(graph.independent_components().is_empty());
        assert_eq!(
            graph.to_string(),
            "DecompositionGraph(|V|=0, |CE|=0, |SE|=0)"
        );
    }

    /// A row layout at the scale of the ISCAS S-series circuits
    /// (~14k shapes).
    fn chip_scale_layout() -> Layout {
        let config = gen::RowLayoutConfig {
            name: "chip".into(),
            rows: 30,
            cells_per_row: 86,
            contact_density: 0.68,
            wire_density: 0.6,
            k5_clusters: 6,
            dense_strips: 2,
            strip_length: 16,
            seed: 0x5eed,
        };
        gen::generate_row_layout(&config, &tech())
    }

    #[test]
    fn shape_pass_queries_only_splittable_shapes() {
        let layout = chip_scale_layout();
        let config = StitchConfig::default();
        let splittable = layout
            .iter()
            .filter(|shape| {
                let rects = shape.polygon().rects();
                rects.len() == 1
                    && rects[0].width().max(rects[0].height()) >= config.min_segment_length * 2
            })
            .count();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &config);
        assert_eq!(graph.work.shape_queries, splittable);
        assert!(
            splittable * 5 < layout.shape_count(),
            "{splittable} of {} shapes are wires",
            layout.shape_count()
        );
        assert!(!graph.stitch_edges().is_empty());
        let whole = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::disabled());
        assert_eq!(whole.work.shape_queries, 0);
    }

    #[test]
    fn segment_pass_work_is_linear_in_its_output() {
        // Every candidate the segment pass examines is the vertex itself,
        // one end of a conflict or color-friendly pair (each pair is met
        // from both ends), or a nearby segment of the same shape, of which
        // these layouts have at most one per vertex on average: so twice
        // the output bounds it.  (Measured: 1.7–1.8× on both layouts.)
        let lattice = gen::contact_array(&tech(), 48, 48, Nm(70));
        for (name, layout) in [("row", chip_scale_layout()), ("lattice", lattice)] {
            for k in [4, 5] {
                let graph =
                    DecompositionGraph::build(&layout, &tech(), k, &StitchConfig::default());
                let output = graph.vertex_count()
                    + graph.conflict_edges().len()
                    + graph.color_friendly_pairs().len();
                let examined = graph.work.segment_candidates;
                assert!(
                    examined <= 2 * output,
                    "{name} K={k}: {examined} candidates for {output} vertices and pairs"
                );
            }
        }
    }

    #[test]
    fn contacts_billions_of_nanometres_apart_build_a_graph() {
        // Two conflicting pairs at opposite corners of a ±2·10⁹ nm extent:
        // the flat index stores only the cells they cover.
        let far = 2_000_000_000;
        let mut builder = Layout::builder("far-apart");
        builder.add_contact(Nm(-far), Nm(-far), Nm(20));
        builder.add_contact(Nm(-far + 60), Nm(-far), Nm(20));
        builder.add_contact(Nm(far - 80), Nm(far - 20), Nm(20));
        builder.add_contact(Nm(far - 20), Nm(far - 20), Nm(20));
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.conflict_edges(), &[(0, 1), (2, 3)]);
        assert_eq!(graph.independent_components().len(), 2);
    }

    #[test]
    fn generated_row_layout_builds_quickly_and_consistently() {
        let layout = gen::generate_row_layout(&gen::RowLayoutConfig::small("t", 11), &tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert!(graph.vertex_count() >= layout.shape_count());
        // Every stitch edge joins segments of the same shape; every conflict
        // edge joins segments of different shapes.
        for &(u, v) in graph.stitch_edges() {
            assert_eq!(graph.shape_of(VertexId(u)), graph.shape_of(VertexId(v)));
        }
        for &(u, v) in graph.conflict_edges() {
            assert_ne!(graph.shape_of(VertexId(u)), graph.shape_of(VertexId(v)));
        }
    }
}
