//! Seeded workload inputs.
//!
//! Every table, paragraph and request template is a pure function of the
//! workload seed given on the command line; the program under test only
//! ever sees the generated inputs. Shapes follow the repository's ragged
//! and stress zoos (same families, same size ranges), but the content,
//! the exact sizes and the request seeds move with the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::Table;
use uctr::serve::{GenRequest, RequestSpec, WireTable};
use uctr::TableWithContext;

const NAMES: &[&str] = &[
    "Alder", "Birch", "Cedar", "Dahlia", "Elm", "Fern", "Ginkgo", "Hazel", "Iris", "Juniper",
    "Laurel", "Maple", "Nettle", "Oak", "Poplar", "Quince", "Rowan", "Sage", "Tulip", "Umber",
    "Violet", "Willow", "Yarrow", "Zinnia",
];
const GROUPS: &[&str] =
    &["north", "south", "east", "west", "central", "coastal", "alpine", "plains"];

/// Ragged-zoo families per unit of scale: degenerate, tiny (3–5 rows), big
/// (160–224 rows), split-heavy (24–40 rows), and paragraph-bearing.
const FAMILY_UNIT: [usize; 5] = [2, 6, 2, 4, 4];

/// Scale of the batch zoo: 16 units of 18 inputs = 288 inputs per pass.
pub const RAGGED_SCALE: usize = 16;

/// Rows of the heavy serve-queue table and its numeric column count
/// (plus the entity and group columns: 10k × 14).
pub const HEAVY_ROWS: usize = 10_000;
pub const HEAVY_NUMERIC_COLS: usize = 12;

/// Request seeds are drawn below 2^53, the integer range JSON carries
/// exactly between independent implementations (RFC 7493). The daemon's
/// decoder refuses seeds of 2^63 and above: they encode as floats.
const SEED_RANGE: u64 = 1 << 53;

/// Independent streams per input family, so adding a family never shifts
/// the content of another.
fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn grid_table(title: &str, grid: &[Vec<String>]) -> Table {
    let borrowed: Vec<Vec<&str>> =
        grid.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    Table::from_strings(title, &borrowed)
        .unwrap_or_else(|e| panic!("generated table `{title}` is malformed: {e}"))
}

/// Entity column, group column, then `numeric` numeric columns; about one
/// cell in twelve of the second numeric column is empty.
fn stats_table(rng: &mut StdRng, title: &str, rows: usize, numeric: usize) -> Table {
    let mut header: Vec<String> = vec!["name".into(), "region".into()];
    header.extend(["score", "games", "margin"].iter().take(numeric).map(|s| s.to_string()));
    let mut grid = vec![header];
    for r in 0..rows {
        let mut row = Vec::with_capacity(numeric + 2);
        row.push(format!("{} {}", NAMES[rng.gen_range(0..NAMES.len())], r));
        row.push(GROUPS[rng.gen_range(0..GROUPS.len())].to_string());
        for c in 0..numeric {
            if c == 1 && rng.gen_range(0..12) == 0 {
                row.push(String::new());
            } else {
                row.push(rng.gen_range(-20..95).to_string());
            }
        }
        grid.push(row);
    }
    grid_table(title, &grid)
}

/// Small entity + two-numeric table with a paragraph describing an entity
/// that is not in it, so Text-To-Table integrates a row.
fn expandable(rng: &mut StdRng, title: &str, rows: usize) -> TableWithContext {
    let mut grid = vec![vec!["name".to_string(), "points".into(), "wins".into()]];
    for r in 0..rows {
        grid.push(vec![
            format!("{} {}", NAMES[rng.gen_range(0..NAMES.len())], r),
            rng.gen_range(20..90).to_string(),
            rng.gen_range(0..30).to_string(),
        ]);
    }
    let paragraph = format!(
        "The season ran long. Newcomer {} has a points of {} and a wins of {}. Attendance rose.",
        rng.gen_range(100..999),
        rng.gen_range(20..90),
        rng.gen_range(0..30),
    );
    TableWithContext {
        table: grid_table(title, &grid).into(),
        paragraph: Some(paragraph),
        topic: "expand".into(),
    }
}

/// The ragged zoo: `18 * scale` inputs, families clustered in input order
/// (degenerate, tiny, big, split-heavy, paragraph-bearing) so a static
/// split of the inputs would be imbalanced. Sizes cycle through each
/// family's range on a fixed schedule and only the content follows the
/// seed, so the work per pass barely moves between seeds.
pub fn ragged(seed: u64, scale: usize) -> Vec<TableWithContext> {
    let [degenerate, tiny, big, split, expand] = FAMILY_UNIT.map(|n| n * scale.max(1));
    let mut out = Vec::with_capacity(18 * scale.max(1));
    for k in 0..degenerate {
        let t = if k % 2 == 0 {
            grid_table(&format!("empty {k}"), &[vec!["a".into(), "b".into()]])
        } else {
            grid_table(&format!("void {k}"), &[])
        };
        out.push(TableWithContext::bare(t));
    }
    let mut rng = stream(seed, 1);
    for k in 0..tiny {
        let t = stats_table(&mut rng, &format!("tiny {k}"), 3 + k % 3, 3);
        out.push(TableWithContext::bare(t));
    }
    let mut rng = stream(seed, 2);
    for k in 0..big {
        let t = stats_table(&mut rng, &format!("big {k}"), 160 + 64 * (k % 2), 3);
        out.push(TableWithContext::bare(t));
    }
    let mut rng = stream(seed, 3);
    for k in 0..split {
        let t = stats_table(&mut rng, &format!("split {k}"), 24 + 4 * (k % 5), 3);
        out.push(TableWithContext::bare(t));
    }
    let mut rng = stream(seed, 4);
    for k in 0..expand {
        out.push(expandable(&mut rng, &format!("expand {k}"), 8 + k % 5));
    }
    out
}

/// Entity, group, then `numeric_cols` wide numeric metric columns with
/// about one null in sixteen cells.
fn wide_table(rng: &mut StdRng, title: &str, rows: usize, numeric_cols: usize) -> Table {
    let mut header: Vec<String> = vec!["name".into(), "region".into()];
    header.extend((0..numeric_cols).map(|c| format!("metric {c}")));
    let mut grid: Vec<Vec<String>> = Vec::with_capacity(rows + 1);
    grid.push(header);
    for r in 0..rows {
        let mut row: Vec<String> = Vec::with_capacity(numeric_cols + 2);
        row.push(format!("{} {}", NAMES[rng.gen_range(0..NAMES.len())], r));
        row.push(GROUPS[rng.gen_range(0..GROUPS.len())].to_string());
        for _ in 0..numeric_cols {
            if rng.gen_range(0..16) == 0 {
                row.push(String::new());
            } else {
                row.push(rng.gen_range(-500..9500).to_string());
            }
        }
        grid.push(row);
    }
    grid_table(title, &grid)
}

/// Input collections per `batch-wide` run. A pass over 10k-row tables
/// draws few programs, and one SQL draw can cost a hundred times another,
/// so each run cycles through several seeded collections.
pub const WIDE_SETS: u64 = 4;

/// One wide collection (`set` < [`WIDE_SETS`]): a 10k × 14 and a 12k × 18
/// table. The shapes are fixed (context build scales with the cell count);
/// the content follows the seed and the set.
pub fn wide(seed: u64, set: u64) -> Vec<TableWithContext> {
    let mut rng = stream(seed, 16 + set);
    [(10_000, 12), (12_000, 16)]
        .iter()
        .enumerate()
        .map(|(k, &(rows, numeric))| {
            TableWithContext::bare(wide_table(&mut rng, &format!("wide {k}"), rows, numeric))
        })
        .collect()
}

/// The heavy serve-queue table: 10k rows × 14 columns.
pub fn heavy(seed: u64) -> WireTable {
    let mut rng = stream(seed, 6);
    let table = wide_table(&mut rng, "heavy", HEAVY_ROWS, HEAVY_NUMERIC_COLS);
    WireTable::from_input(&TableWithContext::bare(table))
}

/// One request template per pair of consecutive ragged inputs, alternating
/// QA and verification, each with its own seed. Pairs follow the zoo's
/// family clustering, so the big tables travel together: about one request
/// in nine carries two 160–224-row tables.
pub fn ragged_requests(seed: u64, inputs: &[TableWithContext]) -> Vec<GenRequest> {
    let mut rng = stream(seed, 7);
    let wire: Vec<WireTable> = inputs.iter().map(WireTable::from_input).collect();
    wire.chunks(2)
        .enumerate()
        .map(|(i, pair)| {
            let request_seed = rng.gen_range(0..SEED_RANGE);
            let spec = if i % 2 == 0 {
                RequestSpec::qa(request_seed)
            } else {
                RequestSpec::verification(request_seed)
            };
            GenRequest::generate(i as u64, spec, pair.to_vec())
        })
        .collect()
}

/// A heavy request: the heavy table under a verification spec. Its cost is
/// typing plus context build, steady from seed to seed. A QA request over
/// the same table costs 0.2–1.2 s depending on which SQL templates the seed
/// draws, which would move the queue between regimes from seed to seed;
/// `batch-wide` measures QA on tables of this size.
pub fn heavy_request(seed: u64, index: usize, table: &WireTable) -> GenRequest {
    let request_seed = stream(seed, 8 + index as u64).gen_range(0..SEED_RANGE);
    GenRequest::generate(index as u64, RequestSpec::verification(request_seed), vec![table.clone()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &[TableWithContext], b: &[TableWithContext]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.table == y.table && x.paragraph == y.paragraph)
    }

    #[test]
    fn one_seed_reproduces_its_inputs_and_another_differs() {
        assert!(same(&ragged(7, 1), &ragged(7, 1)));
        assert!(!same(&ragged(7, 1), &ragged(8, 1)));
        assert!(same(&wide(7, 0), &wide(7, 0)));
        assert!(!same(&wide(7, 0), &wide(8, 0)));
        assert!(!same(&wide(7, 0), &wide(7, 1)));
        assert_eq!(heavy(7), heavy(7));
        assert_ne!(heavy(7), heavy(8));
        let inputs = ragged(7, 1);
        assert_eq!(ragged_requests(7, &inputs), ragged_requests(7, &inputs));
        assert_ne!(ragged_requests(7, &inputs), ragged_requests(8, &inputs));
        let h = heavy(7);
        assert_eq!(heavy_request(7, 3, &h), heavy_request(7, 3, &h));
        assert_ne!(heavy_request(7, 3, &h), heavy_request(8, 3, &h));
    }

    #[test]
    fn shapes_match_the_workload_contract() {
        let zoo = ragged(3, RAGGED_SCALE);
        assert!(zoo.len() >= 288);
        assert!(zoo.iter().any(|t| t.table.n_rows() == 0));
        assert!(zoo.iter().all(|t| t.table.n_rows() <= 224));
        assert!(zoo.iter().filter(|t| t.table.n_rows() >= 160).count() >= 2 * RAGGED_SCALE);
        for t in zoo.iter().filter(|t| t.paragraph.is_some()) {
            let p = t.paragraph.as_deref().unwrap_or_default();
            assert!(textops::text_to_table(&t.table, p).is_some(), "{}", t.table.title);
        }
        for t in wide(3, 0) {
            assert!((10_000..=12_000).contains(&t.table.n_rows()));
            assert!((14..=18).contains(&t.table.n_cols()));
        }
        assert!(zoo.iter().filter(|t| (3..=5).contains(&t.table.n_rows())).count() >= 96);
        let h = heavy(3);
        assert_eq!(h.rows.len(), HEAVY_ROWS + 1);
        assert_eq!(h.rows[0].len(), HEAVY_NUMERIC_COLS + 2);
        let requests = ragged_requests(3, &zoo);
        assert_eq!(requests.len(), zoo.len() / 2);
        assert!(requests.iter().all(|r| r.tables.len() == 2));
    }
}
