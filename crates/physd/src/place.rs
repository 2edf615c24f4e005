//! Standard-cell legalization: an abacus/Tetris-style pass that snaps
//! cells into rows without overlap while minimising displacement.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::geom::Point;

/// A standard cell with a global (possibly illegal) position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// Cell width in sites.
    pub width: i64,
    /// Global-placement location (x in sites, y in row units).
    pub target: Point,
}

/// Row-based placement region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementRegion {
    /// Number of rows.
    pub rows: i64,
    /// Sites per row.
    pub sites_per_row: i64,
}

/// A legalized cell: assigned row and site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedCell {
    /// Instance name.
    pub name: String,
    /// Width in sites.
    pub width: i64,
    /// Legal location.
    pub location: Point,
    /// Manhattan displacement from the global location.
    pub displacement: i64,
}

/// Error legalizing a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// Total cell area exceeds region capacity.
    Overfull {
        /// Sites demanded.
        demand: i64,
        /// Sites available.
        capacity: i64,
    },
    /// A single cell is wider than a row.
    CellTooWide {
        /// The offending cell name.
        name: String,
    },
    /// No row has room for a cell past its fill pointer, although the
    /// region's total capacity suffices (the greedy pass never back-fills
    /// gaps it left behind).
    NoRowFits {
        /// The stranded cell name.
        name: String,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Overfull { demand, capacity } => {
                write!(f, "placement demands {demand} sites, region has {capacity}")
            }
            PlaceError::CellTooWide { name } => write!(f, "cell {name} wider than a row"),
            PlaceError::NoRowFits { name } => {
                write!(f, "no row has room for cell {name} past its fill pointer")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Legalizes `cells` into `region` greedily: cells sorted by x, each
/// packed into the nearest row with space at the closest legal site.
///
/// # Errors
///
/// [`PlaceError::Overfull`] when the cells cannot fit,
/// [`PlaceError::CellTooWide`] when any single cell exceeds the row
/// width, [`PlaceError::NoRowFits`] when the greedy pass strands a cell
/// that the region's total capacity could hold.
pub fn legalize(cells: &[Cell], region: PlacementRegion) -> Result<Vec<PlacedCell>, PlaceError> {
    let demand: i64 = cells.iter().map(|c| c.width).sum();
    let capacity = region.rows * region.sites_per_row;
    if demand > capacity {
        return Err(PlaceError::Overfull { demand, capacity });
    }
    if let Some(c) = cells.iter().find(|c| c.width > region.sites_per_row) {
        return Err(PlaceError::CellTooWide {
            name: c.name.clone(),
        });
    }
    // Sort left-to-right (classic Tetris order).
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| (cells[i].target.x, cells[i].target.y));
    // Per-row fill pointer (next free site).
    let mut fill = vec![0i64; region.rows as usize];
    let mut placed = Vec::with_capacity(cells.len());
    for &i in &order {
        let cell = &cells[i];
        // choose the row minimising displacement given the row's current
        // fill pointer
        let mut best: Option<(i64, i64, i64)> = None; // (cost, row, x)
        for row in 0..region.rows {
            if fill[row as usize] + cell.width > region.sites_per_row {
                continue;
            }
            let x = cell
                .target
                .x
                .clamp(fill[row as usize], region.sites_per_row - cell.width)
                .max(fill[row as usize]);
            let cost = (x - cell.target.x).abs() + (row - cell.target.y).abs();
            if best.is_none_or(|(bc, _, _)| cost < bc) {
                best = Some((cost, row, x));
            }
        }
        let (cost, row, x) = best.ok_or_else(|| PlaceError::NoRowFits {
            name: cell.name.clone(),
        })?;
        fill[row as usize] = x + cell.width;
        placed.push(PlacedCell {
            name: cell.name.clone(),
            width: cell.width,
            location: Point::new(x, row),
            displacement: cost,
        });
    }
    Ok(placed)
}

/// Total displacement of a legalized placement.
pub fn total_displacement(placed: &[PlacedCell]) -> i64 {
    placed.iter().map(|p| p.displacement).sum()
}

/// Checks that no two cells in the same row overlap.
pub fn check_no_overlap(placed: &[PlacedCell]) -> bool {
    let mut by_row: std::collections::HashMap<i64, Vec<(i64, i64)>> =
        std::collections::HashMap::new();
    for p in placed {
        by_row
            .entry(p.location.y)
            .or_default()
            .push((p.location.x, p.location.x + p.width));
    }
    by_row.values_mut().all(|spans| {
        spans.sort();
        spans.windows(2).all(|w| w[0].1 <= w[1].0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, width: i64, x: i64, y: i64) -> Cell {
        Cell {
            name: name.into(),
            width,
            target: Point::new(x, y),
        }
    }

    fn region() -> PlacementRegion {
        PlacementRegion {
            rows: 4,
            sites_per_row: 20,
        }
    }

    #[test]
    fn already_legal_placement_is_unmoved() {
        let cells = vec![cell("a", 4, 0, 0), cell("b", 4, 10, 1)];
        let placed = legalize(&cells, region()).unwrap();
        assert_eq!(total_displacement(&placed), 0);
        assert!(check_no_overlap(&placed));
    }

    #[test]
    fn overlapping_cells_are_separated() {
        let cells = vec![cell("a", 6, 5, 0), cell("b", 6, 5, 0), cell("c", 6, 5, 0)];
        let placed = legalize(&cells, region()).unwrap();
        assert!(check_no_overlap(&placed));
        assert!(total_displacement(&placed) > 0);
    }

    #[test]
    fn overfull_region_rejected() {
        let cells = vec![cell("a", 20, 0, 0); 5];
        assert!(matches!(
            legalize(&cells, region()),
            Err(PlaceError::Overfull { .. })
        ));
    }

    #[test]
    fn stranded_cell_is_reported_as_no_row_fits() {
        // 12 of 24 sites demanded, but the first two cells leave both
        // fill pointers at x=9, so the third cell fits in neither row.
        let cells = vec![cell("a", 4, 5, 0), cell("b", 4, 5, 0), cell("c", 4, 5, 0)];
        let two_rows = PlacementRegion {
            rows: 2,
            sites_per_row: 12,
        };
        assert_eq!(
            legalize(&cells, two_rows),
            Err(PlaceError::NoRowFits { name: "c".into() })
        );
    }

    #[test]
    fn too_wide_cell_rejected() {
        let cells = vec![cell("a", 25, 0, 0)];
        assert!(matches!(
            legalize(&cells, region()),
            Err(PlaceError::CellTooWide { .. })
        ));
    }

    #[test]
    fn cells_clamp_into_row_bounds() {
        let cells = vec![cell("edge", 5, 18, 0)];
        let placed = legalize(&cells, region()).unwrap();
        assert!(placed[0].location.x + placed[0].width <= 20);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn legalized_placements_never_overlap(
                specs in proptest::collection::vec((1i64..6, 0i64..20, 0i64..4), 1..16),
            ) {
                let cells: Vec<Cell> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(w, x, y))| cell(&format!("c{i}"), w, x, y))
                    .collect();
                if let Ok(placed) = legalize(&cells, region()) {
                    prop_assert!(check_no_overlap(&placed));
                    prop_assert_eq!(placed.len(), cells.len());
                    for p in &placed {
                        prop_assert!(p.location.x >= 0);
                        prop_assert!(p.location.x + p.width <= 20);
                        prop_assert!((0..4).contains(&p.location.y));
                    }
                }
            }
        }
    }
}
