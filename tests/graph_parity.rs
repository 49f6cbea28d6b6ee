//! Pins decomposition-graph construction bit for bit: FNV-1a digests of the
//! vertex rectangles (with their owning shapes), the conflict edges, the
//! stitch edges and the color-friendly pairs — each list in the order the
//! builder emits it, so a change of visiting order fails here even when the
//! edge sets agree.  Colorings, memo signatures and the goldens all read
//! these lists in order.
//!
//! Cases:
//!
//! - two chip-scale standard-cell row layouts (~11k and ~17k shapes) at
//!   K = 4, 5 and 8;
//! - a complete 48×48 contact lattice at 70 nm pitch at K = 4, 5 and 8;
//! - a row layout plus L- and T-shaped multi-rectangle features written to
//!   GDS one boundary per rectangle and read back, which merges the
//!   touching boundaries again (the GDS reader's touching-group pass);
//! - a row layout built with stitching disabled.

use mpl_core::{DecompositionGraph, StitchConfig, VertexId};
use mpl_gds::{GdsLibrary, LayerMap, ReadOptions};
use mpl_geometry::{Nm, Polygon, Rect};
use mpl_layout::{gen, Layout, Technology};

/// `[vertices, conflict edges, stitch edges, friendly pairs]` counts plus
/// the digest of each list in the same order.
type Pin = ([usize; 4], [u64; 4]);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: i64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn pairs(pairs: &[(usize, usize)]) -> u64 {
        let mut hash = Fnv::new();
        for &(u, v) in pairs {
            hash.word(u as i64);
            hash.word(v as i64);
        }
        hash.0
    }
}

fn pin(layout: &Layout, k: usize, stitch: &StitchConfig) -> Pin {
    let graph = DecompositionGraph::build(layout, &Technology::nm20(), k, stitch);
    let mut vertices = Fnv::new();
    for vertex in 0..graph.vertex_count() {
        let rects = graph.polygon(VertexId(vertex)).clone();
        assert_eq!(rects.rect_count(), 1, "every vertex is one rectangle");
        let rect = rects.rects()[0];
        vertices.word(graph.shape_of(VertexId(vertex)).index() as i64);
        for coord in [rect.xlo(), rect.ylo(), rect.xhi(), rect.yhi()] {
            vertices.word(coord.value());
        }
    }
    (
        [
            graph.vertex_count(),
            graph.conflict_edges().len(),
            graph.stitch_edges().len(),
            graph.color_friendly_pairs().len(),
        ],
        [
            vertices.0,
            Fnv::pairs(graph.conflict_edges()),
            Fnv::pairs(graph.stitch_edges()),
            Fnv::pairs(graph.color_friendly_pairs()),
        ],
    )
}

/// A row layout at the scale of the ISCAS S-series circuits: about
/// 5.4 shapes per cell slot at these densities.
fn chip_layout(shapes: usize, rows: usize, k5: usize, strips: usize, seed: u64) -> Layout {
    let config = gen::RowLayoutConfig {
        name: format!("chip-{shapes}"),
        rows,
        cells_per_row: (shapes as f64 / (rows as f64 * 5.42)).round() as usize,
        contact_density: 0.68,
        wire_density: 0.6,
        k5_clusters: k5,
        dense_strips: strips,
        strip_length: 16,
        seed,
    };
    gen::generate_row_layout(&config, &Technology::nm20())
}

/// A small row layout with a block of L- and T-shaped features beside it,
/// each close enough to its neighbours to conflict, taken through GDS.
fn gds_round_trip() -> Layout {
    let tech = Technology::nm20();
    let rows = gen::generate_row_layout(&gen::RowLayoutConfig::small("gds", 7), &tech);
    let x0 = rows.bounding_box().expect("non-empty").xhi().value() + 400;
    let r = |a: i64, b: i64, c: i64, d: i64| Rect::new(Nm(a), Nm(b), Nm(c), Nm(d));
    let mut builder = Layout::builder("gds-parity");
    for shape in rows.iter() {
        builder.add_polygon(shape.polygon().clone());
    }
    for j in 0..12 {
        for i in 0..12 {
            let (x, y) = (x0 + i * 130, j * 130);
            let rects = if (i + j) % 2 == 0 {
                // An L: a vertical bar with a foot to the right.
                vec![r(x, y, x + 20, y + 100), r(x + 20, y, x + 90, y + 20)]
            } else {
                // A T: a horizontal bar with a stem hanging down.
                vec![
                    r(x, y + 80, x + 100, y + 100),
                    r(x + 40, y + 10, x + 60, y + 80),
                ]
            };
            builder.add_polygon(Polygon::from_rects(rects).expect("non-empty"));
        }
    }
    let layout = builder.build();
    let bytes = mpl_gds::library_from_layout(&layout, 5, 0)
        .and_then(|library| library.to_bytes())
        .expect("fits the GDSII coordinate space");
    let library = GdsLibrary::from_bytes(&bytes).expect("own output parses");
    let read = mpl_gds::layout_from_library(&library, &LayerMap::all(), &ReadOptions::default())
        .expect("own output converts");
    assert_eq!(read.shape_count(), layout.shape_count());
    assert!(read.iter().any(|shape| shape.polygon().rect_count() > 1));
    read
}

fn check(name: &str, layout: &Layout, stitch: &StitchConfig, expected: &[(usize, Pin)]) {
    for &(k, pinned) in expected {
        assert_eq!(pin(layout, k, stitch), pinned, "{name} K={k}");
    }
}

#[test]
fn chip_scale_row_graphs_are_pinned() {
    check(
        "chip-11k",
        &chip_layout(11_145, 26, 4, 1, 0x5eed_0001),
        &StitchConfig::default(),
        &[
            (
                4,
                (
                    [11451, 22394, 405, 3407],
                    [
                        0xce87_9bf2_05f6_e6da,
                        0x0d78_3103_8cd3_2c4b,
                        0x6597_5ff8_4db5_d6fc,
                        0x60d8_e29e_3730_f230,
                    ],
                ),
            ),
            (
                5,
                (
                    [11451, 32675, 405, 3398],
                    [
                        0xce87_9bf2_05f6_e6da,
                        0x756e_c775_dde1_02ac,
                        0x6597_5ff8_4db5_d6fc,
                        0xbec3_7c6b_6351_1e69,
                    ],
                ),
            ),
            (
                8,
                (
                    [11451, 32675, 405, 3398],
                    [
                        0xce87_9bf2_05f6_e6da,
                        0x756e_c775_dde1_02ac,
                        0x6597_5ff8_4db5_d6fc,
                        0xbec3_7c6b_6351_1e69,
                    ],
                ),
            ),
        ],
    );
    check(
        "chip-17k",
        &chip_layout(17_270, 34, 8, 3, 0x5eed_0002),
        &StitchConfig::default(),
        &[
            (
                4,
                (
                    [17852, 35267, 646, 5300],
                    [
                        0xb281_e855_8eb9_fa08,
                        0xb279_d99d_d62c_f33f,
                        0x928f_f2f3_084b_249c,
                        0x9700_1fed_3575_499e,
                    ],
                ),
            ),
            (
                5,
                (
                    [17852, 51288, 646, 5391],
                    [
                        0xb281_e855_8eb9_fa08,
                        0xcb84_8883_f9f2_1202,
                        0x928f_f2f3_084b_249c,
                        0x5c78_dff0_dc63_dbe5,
                    ],
                ),
            ),
            (
                8,
                (
                    [17852, 51288, 646, 5391],
                    [
                        0xb281_e855_8eb9_fa08,
                        0xcb84_8883_f9f2_1202,
                        0x928f_f2f3_084b_249c,
                        0x5c78_dff0_dc63_dbe5,
                    ],
                ),
            ),
        ],
    );
}

#[test]
fn contact_lattice_graph_is_pinned() {
    check(
        "lattice-48",
        &gen::contact_array(&Technology::nm20(), 48, 48, Nm(70)),
        &StitchConfig::default(),
        &[
            (
                4,
                (
                    [2304, 8930, 0, 0],
                    [
                        0x5122_1e13_338d_e1bd,
                        0x6a3d_7db9_0da0_9b3b,
                        0xcbf2_9ce4_8422_2325,
                        0xcbf2_9ce4_8422_2325,
                    ],
                ),
            ),
            (
                5,
                (
                    [2304, 8930, 0, 4416],
                    [
                        0x5122_1e13_338d_e1bd,
                        0x72a9_16b4_8147_1c5b,
                        0xcbf2_9ce4_8422_2325,
                        0xd2aa_c73b_55ce_62ad,
                    ],
                ),
            ),
            (
                8,
                (
                    [2304, 8930, 0, 4416],
                    [
                        0x5122_1e13_338d_e1bd,
                        0x72a9_16b4_8147_1c5b,
                        0xcbf2_9ce4_8422_2325,
                        0xd2aa_c73b_55ce_62ad,
                    ],
                ),
            ),
        ],
    );
}

#[test]
fn gds_round_tripped_graph_is_pinned() {
    check(
        "gds",
        &gds_round_trip(),
        &StitchConfig::default(),
        &[(
            4,
            (
                [548, 1141, 153, 326],
                [
                    0xd072_ad8c_baad_6bbd,
                    0xdae5_35de_ed77_2202,
                    0x0a9c_497f_9752_e347,
                    0xea44_02db_ff8e_0253,
                ],
            ),
        )],
    );
}

#[test]
fn stitch_free_graph_is_pinned() {
    check(
        "no-stitch",
        &chip_layout(11_145, 26, 4, 1, 0x5eed_0003),
        &StitchConfig::disabled(),
        &[(
            4,
            (
                [11126, 21709, 0, 2665],
                [
                    0xd71e_a513_d06c_d4fd,
                    0x9fb5_d34d_9636_9704,
                    0xcbf2_9ce4_8422_2325,
                    0x2abc_61d9_13e1_c37f,
                ],
            ),
        )],
    );
}
