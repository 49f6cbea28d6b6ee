//! Conversion between GDSII libraries and the workspace layout model.
//!
//! The bridge has three parts:
//!
//! * [`LayerMap`] — selects which GDS `layer:datatype` pairs become layout
//!   shapes (the decomposition flow is single-layer; a real GDS holds many).
//! * [`layout_from_library`] — flattens a library, filters it through the
//!   layer map, scales database units to nanometres, and (by default)
//!   merges touching polygons back into connected shapes, which is what the
//!   stitch machinery expects.
//! * [`library_from_layout`] / [`library_from_masks`] — serialise a layout
//!   (or a colored decomposition, one layer per mask) as boundary records,
//!   one rectangle per boundary.

use crate::flatten::flatten_tagged;
use crate::model::{GdsElement, GdsLibrary, GdsStruct};
use crate::GdsError;
use mpl_geometry::{GridIndex, Nm, Polygon, Rect};
use mpl_layout::{CellInstance, Layout, LayoutHierarchy};

/// Selection of GDS `layer:datatype` pairs to import.
#[derive(Debug, Clone, Default)]
pub struct LayerMap {
    /// `None` accepts every pair; otherwise only listed pairs are imported.
    /// A `None` datatype accepts every datatype on that layer.
    selection: Option<Vec<(i16, Option<i16>)>>,
}

impl LayerMap {
    /// Accepts every layer and datatype.
    pub fn all() -> Self {
        LayerMap { selection: None }
    }

    /// Adds one `layer` (all datatypes) or `layer:datatype` pair.
    pub fn with(mut self, layer: i16, datatype: Option<i16>) -> Self {
        self.selection
            .get_or_insert_with(Vec::new)
            .push((layer, datatype));
        self
    }

    /// Parses a `L` or `L:D` specification, as given to `--layer`.
    ///
    /// # Errors
    ///
    /// Returns [`GdsError::BadLayerSpec`] for anything else.
    pub fn parse_spec(spec: &str) -> Result<(i16, Option<i16>), GdsError> {
        let bad = || GdsError::BadLayerSpec {
            spec: spec.to_string(),
        };
        match spec.split_once(':') {
            Some((layer, datatype)) => {
                let layer = layer.trim().parse().map_err(|_| bad())?;
                let datatype = datatype.trim().parse().map_err(|_| bad())?;
                Ok((layer, Some(datatype)))
            }
            None => {
                let layer = spec.trim().parse().map_err(|_| bad())?;
                Ok((layer, None))
            }
        }
    }

    /// Builds a map from `--layer` specifications; no specs means *all*.
    ///
    /// # Errors
    ///
    /// Returns [`GdsError::BadLayerSpec`] for a malformed specification.
    pub fn from_specs<S: AsRef<str>>(specs: &[S]) -> Result<LayerMap, GdsError> {
        let mut map = LayerMap::all();
        for spec in specs {
            let (layer, datatype) = LayerMap::parse_spec(spec.as_ref())?;
            map = map.with(layer, datatype);
        }
        Ok(map)
    }

    /// Whether geometry on `layer`/`datatype` is imported.
    pub fn accepts(&self, layer: i16, datatype: i16) -> bool {
        match &self.selection {
            None => true,
            Some(pairs) => pairs
                .iter()
                .any(|&(l, d)| l == layer && d.is_none_or(|d| d == datatype)),
        }
    }

    /// Whether this map accepts everything.
    pub fn is_all(&self) -> bool {
        self.selection.is_none()
    }
}

/// Options for [`layout_from_library`].
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Flatten from this structure (default: the inferred top structure).
    pub top: Option<String>,
    /// Keep fractured boundaries apart instead of merging touching polygons
    /// into connected shapes.
    pub keep_fractured: bool,
}

/// Flattens a GDS library into a single-layer [`Layout`].
///
/// Geometry is filtered through `map`, scaled from database units to
/// nanometres using the library's `UNITS` record, and — unless
/// `options.keep_fractured` is set — touching polygons are merged into
/// connected shapes so that a feature fractured into many boundaries (the
/// normal state of real mask data) becomes one decomposition vertex.
///
/// # Errors
///
/// Propagates flattening errors and reports [`GdsError::EmptySelection`]
/// when a restrictive layer map filtered away every shape.
pub fn layout_from_library(
    library: &GdsLibrary,
    map: &LayerMap,
    options: &ReadOptions,
) -> Result<Layout, GdsError> {
    Ok(layout_with_hierarchy(library, map, options)?.0)
}

/// Flattens a GDS library like [`layout_from_library`] — the returned
/// layout is identical — and additionally reports which top-level cell
/// instance every shape came from.
///
/// A merged shape (touching polygons unioned into one) keeps its tag only
/// when every constituent polygon came from the same instance; geometry
/// that merges across a cell boundary, or belongs to the top structure
/// itself, is tagged `None`. Instance translations are scaled to
/// nanometres.
///
/// # Errors
///
/// Same as [`layout_from_library`].
pub fn layout_with_hierarchy(
    library: &GdsLibrary,
    map: &LayerMap,
    options: &ReadOptions,
) -> Result<(Layout, LayoutHierarchy), GdsError> {
    let top_name = library.top_struct(options.top.as_deref())?.name.clone();
    let flat = flatten_tagged(library, options.top.as_deref())?;
    let scale = library.nm_per_db_unit();
    let mut polygons: Vec<Polygon> = Vec::new();
    let mut tags: Vec<Option<usize>> = Vec::new();
    let mut seen_any = false;
    for (shape, origin) in flat.shapes.iter().zip(&flat.origins) {
        seen_any = true;
        if !map.accepts(shape.layer, shape.datatype) {
            continue;
        }
        let rects: Vec<Rect> = shape
            .rects
            .iter()
            .map(|&(xlo, ylo, xhi, yhi)| {
                Rect::new(
                    scale_to_nm(xlo, scale),
                    scale_to_nm(ylo, scale),
                    scale_to_nm(xhi, scale),
                    scale_to_nm(yhi, scale),
                )
            })
            .collect();
        if let Ok(polygon) = Polygon::from_rects(rects) {
            polygons.push(polygon);
            tags.push(*origin);
        }
    }
    if polygons.is_empty() && seen_any && !map.is_all() {
        return Err(GdsError::EmptySelection);
    }

    let groups = if options.keep_fractured {
        (0..polygons.len()).map(|i| vec![i]).collect()
    } else {
        touching_groups(&polygons)
    };

    let name = if top_name.is_empty() {
        library.name.clone()
    } else {
        top_name
    };
    let mut builder = Layout::builder(name);
    let mut shape_origins: Vec<Option<usize>> = Vec::new();
    for group in groups {
        let mut rects = Vec::new();
        for &index in &group {
            rects.extend_from_slice(polygons[index].rects());
        }
        if let Ok(polygon) = Polygon::from_rects(rects) {
            builder.add_polygon(polygon);
            // A union spanning several instances (or top-level geometry)
            // has no single origin.
            shape_origins.push(
                group
                    .iter()
                    .map(|&index| tags[index])
                    .reduce(|a, b| if a == b { a } else { None })
                    .flatten(),
            );
        }
    }
    let instances = flat
        .instances
        .iter()
        .map(|instance| CellInstance {
            cell: instance.cell.clone(),
            dx: scale_to_nm(instance.dx, scale).value(),
            dy: scale_to_nm(instance.dy, scale).value(),
        })
        .collect();
    Ok((
        builder.build(),
        LayoutHierarchy::new(instances, shape_origins).with_nested_inherited(flat.nested_inherited),
    ))
}

/// Groups polygon indices into connected (touching/overlapping) components,
/// preserving first-appearance order.
fn touching_groups(polygons: &[Polygon]) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..polygons.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }

    // Spatial index over component rectangles keeps this near-linear.
    let index = GridIndex::build(
        Nm(256),
        polygons
            .iter()
            .enumerate()
            .flat_map(|(poly_index, polygon)| {
                polygon.rects().iter().map(move |&rect| (poly_index, rect))
            }),
    );
    for (poly_index, polygon) in polygons.iter().enumerate() {
        for rect in polygon.rects() {
            index.visit_within(rect, Nm(1), |other, _, _| {
                if other == poly_index {
                    return;
                }
                let (ra, rb) = (find(&mut parent, poly_index), find(&mut parent, other));
                if ra != rb && polygons[poly_index].touches(&polygons[other]) {
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    parent[hi] = lo;
                }
            });
        }
    }

    let mut group_of_root: Vec<Option<usize>> = vec![None; polygons.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..polygons.len() {
        let root = find(&mut parent, i);
        match group_of_root[root] {
            Some(g) => groups[g].push(i),
            None => {
                group_of_root[root] = Some(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

fn scale_to_nm(value: i64, scale: f64) -> Nm {
    if scale == 1.0 {
        Nm(value)
    } else {
        Nm((value as f64 * scale).round() as i64)
    }
}

fn db_coord(value: Nm) -> Result<i32, GdsError> {
    i32::try_from(value.value()).map_err(|_| GdsError::CoordinateOverflow {
        value: value.value(),
    })
}

fn rect_loop(rect: &Rect) -> Result<Vec<(i32, i32)>, GdsError> {
    let (xlo, ylo) = (db_coord(rect.xlo())?, db_coord(rect.ylo())?);
    let (xhi, yhi) = (db_coord(rect.xhi())?, db_coord(rect.yhi())?);
    Ok(vec![
        (xlo, ylo),
        (xhi, ylo),
        (xhi, yhi),
        (xlo, yhi),
        (xlo, ylo),
    ])
}

/// Serialises a layout as a one-structure GDS library on `layer:datatype`,
/// one `BOUNDARY` per component rectangle, with 1 nm database units.
///
/// # Errors
///
/// Returns [`GdsError::CoordinateOverflow`] when a coordinate exceeds the
/// 32-bit GDSII coordinate space.
pub fn library_from_layout(
    layout: &Layout,
    layer: i16,
    datatype: i16,
) -> Result<GdsLibrary, GdsError> {
    let mut elements = Vec::new();
    for shape in layout.iter() {
        for rect in shape.polygon().rects() {
            elements.push(GdsElement::Boundary {
                layer,
                datatype,
                xy: rect_loop(rect)?,
            });
        }
    }
    let mut library = GdsLibrary::new(layout.name());
    library.structs.push(GdsStruct {
        name: layout.name().to_string(),
        elements,
    });
    Ok(library)
}

/// Serialises a colored decomposition: mask `k` goes to layer
/// `base_layer + k` (datatype 0), so the result opens directly in a layout
/// viewer with one selectable layer per exposure.
///
/// # Errors
///
/// Returns [`GdsError::CoordinateOverflow`] when a coordinate exceeds the
/// 32-bit GDSII coordinate space.
pub fn library_from_masks(
    name: &str,
    masks: &[Vec<Polygon>],
    base_layer: i16,
) -> Result<GdsLibrary, GdsError> {
    let mut elements = Vec::new();
    for (mask_index, polygons) in masks.iter().enumerate() {
        let layer = base_layer + mask_index as i16;
        for polygon in polygons {
            for rect in polygon.rects() {
                elements.push(GdsElement::Boundary {
                    layer,
                    datatype: 0,
                    xy: rect_loop(rect)?,
                });
            }
        }
    }
    let mut library = GdsLibrary::new(name);
    library.structs.push(GdsStruct {
        name: name.to_string(),
        elements,
    });
    Ok(library)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64, c: i64, d: i64) -> Rect {
        Rect::new(Nm(a), Nm(b), Nm(c), Nm(d))
    }

    fn sample_layout() -> Layout {
        let mut builder = Layout::builder("conv");
        builder.add_rect(r(0, 0, 20, 20));
        builder.add_polygon(
            Polygon::from_rects(vec![r(100, 0, 200, 20), r(100, 0, 120, 100)]).expect("non-empty"),
        );
        builder.build()
    }

    #[test]
    fn layout_round_trips_through_a_library() {
        let layout = sample_layout();
        let library = library_from_layout(&layout, 7, 0).expect("write");
        let parsed =
            layout_from_library(&library, &LayerMap::all(), &ReadOptions::default()).expect("read");
        assert_eq!(parsed.name(), "conv");
        assert_eq!(parsed.shape_count(), 2);
        // Shape 1's two touching rectangles were re-merged into one shape.
        assert_eq!(
            parsed.shapes()[1].polygon().bounding_box(),
            r(100, 0, 200, 100)
        );
    }

    #[test]
    fn layer_map_filters_and_reports_empty_selections() {
        let layout = sample_layout();
        let library = library_from_layout(&layout, 7, 3).expect("write");
        let map = LayerMap::all().with(7, Some(3));
        let parsed = layout_from_library(&library, &map, &ReadOptions::default()).expect("read");
        assert_eq!(parsed.shape_count(), 2);
        let wrong_datatype = LayerMap::all().with(7, Some(0));
        assert_eq!(
            layout_from_library(&library, &wrong_datatype, &ReadOptions::default()),
            Err(GdsError::EmptySelection)
        );
        let wrong_layer = LayerMap::all().with(8, None);
        assert_eq!(
            layout_from_library(&library, &wrong_layer, &ReadOptions::default()),
            Err(GdsError::EmptySelection)
        );
    }

    #[test]
    fn keep_fractured_preserves_boundary_granularity() {
        let layout = sample_layout();
        let library = library_from_layout(&layout, 1, 0).expect("write");
        let options = ReadOptions {
            keep_fractured: true,
            ..ReadOptions::default()
        };
        let parsed = layout_from_library(&library, &LayerMap::all(), &options).expect("read");
        // Three rectangles were written, so three unmerged shapes come back.
        assert_eq!(parsed.shape_count(), 3);
    }

    #[test]
    fn hierarchy_tags_survive_conversion_and_merging_clears_them() {
        use crate::model::GdsStrans;
        // CELL is a 20x20 square. TOP places it three times: two
        // placements touch edge-to-edge (their union has no single
        // origin), the third is isolated and keeps its tag. TOP also owns
        // a square of its own.
        let mut library = GdsLibrary::new("L");
        library.structs.push(GdsStruct {
            name: "CELL".into(),
            elements: vec![GdsElement::Boundary {
                layer: 1,
                datatype: 0,
                xy: vec![(0, 0), (20, 0), (20, 20), (0, 20), (0, 0)],
            }],
        });
        let place = |x: i32, y: i32| GdsElement::Sref {
            name: "CELL".into(),
            strans: GdsStrans::default(),
            origin: (x, y),
        };
        library.structs.push(GdsStruct {
            name: "TOP".into(),
            elements: vec![
                place(0, 0),
                place(20, 0), // touches the first placement
                place(500, 0),
                GdsElement::Boundary {
                    layer: 1,
                    datatype: 0,
                    xy: vec![(900, 0), (920, 0), (920, 20), (900, 20), (900, 0)],
                },
            ],
        });
        let (layout, hierarchy) =
            layout_with_hierarchy(&library, &LayerMap::all(), &ReadOptions::default())
                .expect("read");
        assert_eq!(
            layout,
            layout_from_library(&library, &LayerMap::all(), &ReadOptions::default()).expect("read")
        );
        assert_eq!(hierarchy.instance_count(), 3);
        assert_eq!(hierarchy.cell_count(), 1);
        assert_eq!(hierarchy.instances()[2].dx, 500);
        // Merged pair, isolated instance, top-level square.
        assert_eq!(layout.shape_count(), 3);
        assert_eq!(hierarchy.shape_origins(), &[None, Some(2), None]);
    }

    #[test]
    fn layer_specs_parse_and_reject() {
        assert_eq!(LayerMap::parse_spec("17").unwrap(), (17, None));
        assert_eq!(LayerMap::parse_spec("17:4").unwrap(), (17, Some(4)));
        assert_eq!(LayerMap::parse_spec(" 2 : 1 ").unwrap(), (2, Some(1)));
        assert!(LayerMap::parse_spec("m1").is_err());
        assert!(LayerMap::parse_spec("1:x").is_err());
        assert!(LayerMap::parse_spec("").is_err());
    }

    #[test]
    fn masks_land_on_consecutive_layers() {
        let masks = vec![
            vec![Polygon::rect(r(0, 0, 10, 10))],
            vec![Polygon::rect(r(40, 0, 50, 10))],
        ];
        let library = library_from_masks("colored", &masks, 100).expect("write");
        let mask0 = LayerMap::all().with(100, None);
        let mask1 = LayerMap::all().with(101, None);
        let layout0 = layout_from_library(&library, &mask0, &ReadOptions::default()).expect("read");
        let layout1 = layout_from_library(&library, &mask1, &ReadOptions::default()).expect("read");
        assert_eq!(layout0.shape_count(), 1);
        assert_eq!(layout1.shape_count(), 1);
        assert_eq!(
            layout0.shapes()[0].polygon().bounding_box(),
            r(0, 0, 10, 10)
        );
    }

    #[test]
    fn huge_coordinates_overflow_cleanly() {
        let mut builder = Layout::builder("big");
        builder.add_rect(r(0, 0, 3_000_000_000, 10));
        let layout = builder.build();
        assert_eq!(
            library_from_layout(&layout, 1, 0),
            Err(GdsError::CoordinateOverflow {
                value: 3_000_000_000
            })
        );
    }

    #[test]
    fn database_units_scale_to_nanometres() {
        let layout = sample_layout();
        let mut library = library_from_layout(&layout, 1, 0).expect("write");
        // Pretend the file was written with 2 nm database units.
        library.meter_unit = 2e-9;
        let parsed =
            layout_from_library(&library, &LayerMap::all(), &ReadOptions::default()).expect("read");
        assert_eq!(parsed.shapes()[0].polygon().bounding_box(), r(0, 0, 40, 40));
    }
}
