//! Seeded workload inputs.  The program under test only ever sees the
//! bytes built here: layout text, GDSII streams, and submit frames.

use crate::stats::Rng;
use mpl_core::ColorAlgorithm;
use mpl_gds::{
    layout_from_library, library_from_layout, GdsElement, GdsLibrary, GdsStrans, GdsStruct,
    LayerMap, ReadOptions,
};
use mpl_geometry::{Nm, Polygon};
use mpl_layout::gen::{generate_row_layout, RowLayoutConfig};
use mpl_layout::{io, Layout, LayoutBuilder, Technology};
use mpl_serve::{base64, encode_frame, encode_request, LayoutSource, Request, SubmitRequest};

/// Layer the generated GDS streams put their geometry on.
const GDS_LAYER: i16 = 1;

/// Layout bytes as a file would hold them.
#[derive(Debug, Clone)]
pub enum Source {
    Text(String),
    Gds(Vec<u8>),
}

impl Source {
    pub fn len(&self) -> usize {
        match self {
            Source::Text(text) => text.len(),
            Source::Gds(bytes) => bytes.len(),
        }
    }
}

/// One in-process item: the bytes of a layout file and how to decompose it.
#[derive(Debug, Clone)]
pub struct LayoutInput {
    pub source: Source,
    pub shapes: usize,
    pub algorithm: ColorAlgorithm,
    /// Tile window edge for items run through `mpl-tile`.
    pub tile: Option<Nm>,
}

/// The class of a served request, which sets what it should load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A never-seen row layout, inline text.
    Fresh,
    /// A base64 GDS cell array submitted with `hier: true`.
    Hier,
    /// A translated copy of an earlier fresh layout (memo hits).
    Resubmit,
}

/// One served request: the layout bytes a client holds, and the submit
/// frame it sends for them.
#[derive(Debug, Clone)]
pub struct ServedInput {
    pub class: Class,
    pub id: String,
    pub source: Source,
    pub hier: bool,
    /// The encoded submit frame, `\n` included.
    pub frame: String,
    pub shapes: usize,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Fresh => "fresh",
            Class::Hier => "hier",
            Class::Resubmit => "resubmit",
        }
    }
}

impl ServedInput {
    fn new(class: Class, id: String, source: Source, hier: bool, shapes: usize) -> Self {
        let mut input = ServedInput {
            class,
            id,
            source,
            hier,
            frame: String::new(),
            shapes,
        };
        input.frame = encode_frame(&encode_request(&input.request()));
        input
    }

    /// The client's work before sending: wrap the bytes in a submission
    /// (linear engine, server-side verification), base64 for GDS.
    pub fn request(&self) -> Request {
        let source = match &self.source {
            Source::Text(text) => LayoutSource::Text(text.clone()),
            Source::Gds(bytes) => LayoutSource::GdsBase64(base64::encode(bytes)),
        };
        let mut submit = SubmitRequest::new(self.id.clone(), source);
        submit.algorithm = ColorAlgorithm::Linear;
        submit.verify = true;
        submit.hier = self.hier;
        Request::Submit(submit)
    }
}

fn text(layout: &Layout) -> Source {
    Source::Text(io::to_text(layout))
}

fn gds(layout: &Layout) -> Source {
    let bytes = library_from_layout(layout, GDS_LAYER, 0)
        .and_then(|library| library.to_bytes())
        .expect("generated layouts fit the GDSII coordinate space");
    Source::Gds(bytes)
}

/// A row layout of about `shapes` shapes (the generator places ≈5.4 shapes
/// per cell slot at its default densities).
fn row_layout(
    name: String,
    shapes: usize,
    rows: usize,
    rng: &mut Rng,
    k5: usize,
    strips: usize,
) -> Layout {
    let cells_per_row = ((shapes as f64 / (rows as f64 * 5.42)).round() as usize).max(8);
    let config = RowLayoutConfig {
        name,
        rows,
        cells_per_row,
        contact_density: 0.68,
        wire_density: 0.6,
        k5_clusters: k5,
        dense_strips: strips,
        strip_length: 16,
        seed: rng.next_u64(),
    };
    generate_row_layout(&config, &Technology::nm20())
}

/// `chip-flat`: 24 ISCAS S-series-scale row layouts of 11k–18k shapes,
/// alternately as text and as GDS bytes, decomposed with the default
/// engine.  Sizes, K5 clusters (native conflicts) and dense strips
/// (exact-engine work) are fixed per size stratum; the seed draws the
/// geometry and the order.  So every seed covers the same range, and
/// figures differ between seeds only as much as the geometry makes them.
pub fn chip_flat(seed: u64) -> Vec<LayoutInput> {
    const COUNT: usize = 24;
    let mut rng = Rng::new(seed).fork(1);
    let mut items: Vec<LayoutInput> = (0..COUNT)
        .map(|i| {
            let shapes = 11_000 + (i * 7_000 + 3_500) / COUNT;
            let rows = 26 + i * 9 / COUNT;
            let layout = row_layout(
                format!("chip-{i}"),
                shapes,
                rows,
                &mut rng,
                4 + i % 5,
                1 + i % 3,
            );
            LayoutInput {
                source: if i % 2 == 0 {
                    text(&layout)
                } else {
                    gds(&layout)
                },
                shapes: layout.shape_count(),
                algorithm: ColorAlgorithm::SdpBacktrack,
                tile: None,
            }
        })
        .collect();
    rng.shuffle(&mut items);
    items
}

/// A complete contact lattice at 70 nm pitch (orthogonal and diagonal
/// neighbours conflict: a degree-8 conflict graph), at a seeded offset.
///
/// The lattices have no vacancies: the linear engine's conflict count on
/// lattices with a few vacant sites swings two- to fourfold between
/// vacancy patterns, so a per-seed sum would not be comparable between
/// seeds.
fn full_lattice(builder: &mut LayoutBuilder, (cols, rows): (i64, i64), (x0, y0): (i64, i64)) {
    for j in 0..rows {
        for i in 0..cols {
            builder.add_contact(
                Nm(x0 + i * 70),
                Nm(y0 + j * 70),
                Technology::nm20().min_width(),
            );
        }
    }
}

/// `lattice`: eighteen untiled lattices whose site counts step evenly
/// from 36×36 to 47×47 (near-square rectangles, so the sizes — and with
/// them the tail percentile — have no large gaps), each with a
/// standard-cell row block beside it — as contact arrays sit beside logic
/// on a chip, and which keeps stitches in the workload — colored with the
/// linear engine; and two full-chip 96×96 lattices run through `mpl-tile`
/// with the exact engine per 400 nm window.  The seed draws the offsets
/// and the order; the row blocks are the same for every seed.
pub fn lattice(seed: u64) -> Vec<LayoutInput> {
    const COUNT: i64 = 18;
    let mut rng = Rng::new(seed).fork(2);
    let mut items = Vec::new();
    for i in 0..COUNT {
        let sites = 36 * 36 + (47 * 47 - 36 * 36) * (2 * i + 1) / (2 * COUNT);
        let cols = (sites as f64).sqrt() as i64;
        let rows = (sites + cols / 2) / cols;
        let origin = (70 * rng.below(10_000) as i64, 70 * rng.below(10_000) as i64);
        let mut builder = Layout::builder(format!("lattice-{cols}x{rows}"));
        full_lattice(&mut builder, (cols, rows), origin);
        let block = row_layout(
            format!("logic-{i}"),
            1_500,
            4,
            &mut Rng::new(i as u64),
            1,
            0,
        );
        let dx = Nm(origin.0 + cols * 70 + 1_000);
        for shape in block.iter() {
            builder.add_polygon(shape.polygon().translated(dx, Nm(origin.1)));
        }
        let layout = builder.build();
        items.push(LayoutInput {
            source: if i % 2 == 0 {
                gds(&layout)
            } else {
                text(&layout)
            },
            shapes: layout.shape_count(),
            algorithm: ColorAlgorithm::Linear,
            tile: None,
        });
    }
    // The tiled items have nothing beside them: at this commit the tile
    // reconciler leaves cross-window conflicts on lattices that do not
    // align with the 400 nm window grid (other sides, vacancies, extra
    // geometry), which the output checks would reject.
    for i in 0..2 {
        let mut builder = Layout::builder(format!("chip-lattice-{i}"));
        full_lattice(&mut builder, (96, 96), (0, 0));
        let layout = builder.build();
        items.push(LayoutInput {
            source: if i % 2 == 0 {
                text(&layout)
            } else {
                gds(&layout)
            },
            shapes: layout.shape_count(),
            algorithm: ColorAlgorithm::Ilp,
            tile: Some(Nm(400)),
        });
    }
    rng.shuffle(&mut items);
    items
}

/// An SRAM-like GDS library: one `BIT` cell (a 2×2 contact clique, which
/// alone needs all four masks) stamped by an `AREF` at 120 nm pitch, so
/// facing contacts of neighbouring instances conflict and the whole array
/// is one component that provenance splitting cuts into identical cells.
///
/// Cells whose tabs merge into the next column are not used: at this
/// commit the hierarchical reconciler leaves cross-instance conflicts on
/// such arrays with an odd column count, which the output checks reject.
fn cell_array(name: String, cols: i16, rows: i16) -> GdsLibrary {
    let rect = |x0: i32, y0: i32, x1: i32, y1: i32| GdsElement::Boundary {
        layer: GDS_LAYER,
        datatype: 0,
        xy: vec![(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)],
    };
    let (pitch_x, pitch_y) = (120, 120);
    let mut library = GdsLibrary::new(name);
    library.structs.push(GdsStruct {
        name: "BIT".into(),
        elements: vec![
            rect(0, 0, 20, 20),
            rect(40, 0, 60, 20),
            rect(0, 40, 20, 60),
            rect(40, 40, 60, 60),
        ],
    });
    library.structs.push(GdsStruct {
        name: "TOP".into(),
        elements: vec![GdsElement::Aref {
            name: "BIT".into(),
            strans: GdsStrans::default(),
            cols,
            rows,
            xy: [
                (0, 0),
                (i32::from(cols) * pitch_x, 0),
                (0, i32::from(rows) * pitch_y),
            ],
        }],
    });
    library
}

/// `served-mixed`: 40 requests in a fixed class pattern — twenty fresh
/// row layouts of 2k–9k shapes (one per log-size stratum, in an order
/// that spreads sizes over the pass), ten GDS cell arrays of 8×16 to 17×7
/// cells with `hier: true`, and ten translated re-submits of earlier fresh
/// layouts.  The seed draws geometry and translations.
pub fn served_mixed(seed: u64) -> Vec<ServedInput> {
    const PATTERN: [Class; 8] = [
        Class::Fresh,
        Class::Fresh,
        Class::Hier,
        Class::Fresh,
        Class::Resubmit,
        Class::Hier,
        Class::Fresh,
        Class::Resubmit,
    ];
    const BLOCKS: usize = 5;
    const FRESH: usize = 4 * BLOCKS;
    let mut rng = Rng::new(seed).fork(3);
    let mut fresh: Vec<Layout> = Vec::new();
    let mut resubmits = 0;
    let mut arrays = 0;
    let mut inputs = Vec::new();
    for (index, class) in PATTERN
        .iter()
        .cycle()
        .take(BLOCKS * PATTERN.len())
        .enumerate()
    {
        let id = format!("req-{index}");
        let input = match class {
            Class::Fresh => {
                // Stride 7 through the strata: small and large layouts
                // alternate over the pass.
                let stratum = fresh.len() * 7 % FRESH;
                let shapes = 2_000.0 * 4.5f64.powf((stratum as f64 + 0.5) / FRESH as f64);
                let rows = 8 + stratum / 3;
                let layout = row_layout(
                    format!("fresh-{index}"),
                    shapes as usize,
                    rows,
                    &mut rng,
                    2,
                    0,
                );
                let input =
                    ServedInput::new(*class, id, text(&layout), false, layout.shape_count());
                fresh.push(layout);
                input
            }
            Class::Resubmit => {
                // The first and the third fresh layout of the block: with
                // the stride-7 order these are the even strata, which puts
                // the median and the p80 of the pass inside one stratum's
                // requests rather than on the step between two.
                let original = &fresh[fresh.len() - 3 + resubmits % 2];
                resubmits += 1;
                let dx = Nm(1_000 * (1 + rng.below(500) as i64));
                let dy = Nm(1_000 * (1 + rng.below(500) as i64));
                let mut builder = Layout::builder(format!("resubmit-{index}"));
                for shape in original.iter() {
                    builder.add_polygon(Polygon::translated(shape.polygon(), dx, dy));
                }
                let layout = builder.build();
                ServedInput::new(*class, id, text(&layout), false, layout.shape_count())
            }
            Class::Hier => {
                let (cols, rows) = (8 + arrays, 16 - arrays);
                arrays += 1;
                let library = cell_array(format!("sram-{index}"), cols, rows);
                let bytes = library
                    .to_bytes()
                    .expect("cell arrays fit the GDSII coordinate space");
                let shapes =
                    layout_from_library(&library, &LayerMap::all(), &ReadOptions::default())
                        .expect("cell arrays flatten")
                        .shape_count();
                ServedInput::new(*class, id, Source::Gds(bytes), true, shapes)
            }
        };
        inputs.push(input);
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = served_mixed(5);
        let b = served_mixed(5);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.frame == y.frame));
        assert_ne!(served_mixed(6)[0].frame, a[0].frame);
    }
}
