//! Domain vocabularies and random table generators.
//!
//! Substitutes for the benchmark datasets' table sources (Wikipedia pages,
//! financial reports, scientific articles): each domain has schema families
//! with realistic headers and value generators, and every generated table
//! carries a topic tag (the Figure 1 topic-shift experiment partitions by
//! it).

use rand::seq::SliceRandom;
use rand::Rng;
use tabular::{Table, Value};

/// Adjective + noun pools for synthesizing entity names.
const TEAM_ADJ: &[&str] = &[
    "Red", "Blue", "Golden", "Silver", "Northern", "Southern", "Royal", "Flying", "Iron",
    "Crimson", "Emerald", "Thunder", "Shadow", "Coastal", "Mountain", "Desert",
];
const TEAM_NOUN: &[&str] = &[
    "Lions", "Eagles", "Sharks", "Wolves", "Hawks", "Bears", "Tigers", "Falcons", "Panthers",
    "Dragons", "Knights", "Raiders", "Rangers", "Comets", "Pirates", "Giants",
];
const CITIES: &[&str] = &[
    "Oslo", "Lima", "Kyiv", "Quito", "Porto", "Leeds", "Graz", "Turin", "Nagoya", "Accra", "Perth",
    "Quebec", "Malmo", "Basel", "Gdansk", "Split", "Bergen", "Cork", "Ghent", "Brno",
];
const FIRST_NAMES: &[&str] = &[
    "Ada", "Boris", "Clara", "Dmitri", "Elena", "Farid", "Greta", "Hugo", "Ines", "Jonas", "Karin",
    "Luca", "Mira", "Nils", "Olga", "Pavel", "Rosa", "Sven", "Tania", "Viktor",
];
const LAST_NAMES: &[&str] = &[
    "Almeida",
    "Bergman",
    "Castro",
    "Dvorak",
    "Eriksen",
    "Fischer",
    "Gruber",
    "Haraldsen",
    "Ivanov",
    "Jansen",
    "Koval",
    "Lindqvist",
    "Moreau",
    "Novak",
    "Okafor",
    "Petrov",
    "Quist",
    "Rossi",
    "Silva",
    "Tanaka",
];
const FILM_WORDS_A: &[&str] = &[
    "Midnight",
    "Silent",
    "Broken",
    "Hidden",
    "Endless",
    "Burning",
    "Frozen",
    "Distant",
    "Golden",
    "Crimson",
    "Forgotten",
    "Wandering",
];
const FILM_WORDS_B: &[&str] = &[
    "Harbor", "Garden", "Mirror", "River", "Empire", "Voyage", "Letter", "Horizon", "Winter",
    "Promise", "Signal", "Orchard",
];
const DEPARTMENTS: &[&str] = &[
    "Commerce",
    "Defense",
    "Treasury",
    "Energy",
    "Education",
    "Transport",
    "Agriculture",
    "Justice",
    "Labor",
    "Interior",
    "Health",
    "Housing",
];
const COUNTRIES: &[(&str, &str)] = &[
    ("Norway", "Oslo"),
    ("Peru", "Lima"),
    ("Ukraine", "Kyiv"),
    ("Ecuador", "Quito"),
    ("Portugal", "Lisbon"),
    ("Austria", "Vienna"),
    ("Japan", "Tokyo"),
    ("Ghana", "Accra"),
    ("Canada", "Ottawa"),
    ("Sweden", "Stockholm"),
    ("Poland", "Warsaw"),
    ("Croatia", "Zagreb"),
    ("Ireland", "Dublin"),
    ("Belgium", "Brussels"),
    ("Czechia", "Prague"),
];
const ALBUM_WORDS: &[&str] = &[
    "Echoes", "Gravity", "Daylight", "Static", "Bloom", "Parade", "Voltage", "Mosaic", "Harvest",
    "Neon", "Tides", "Ember",
];
const FIN_ITEMS: &[&str] = &[
    "Revenue",
    "Operating costs",
    "Net income",
    "Stockholders' equity",
    "Total assets",
    "Total liabilities",
    "Cash and equivalents",
    "Gross profit",
    "R&D expenses",
    "Marketing expenses",
    "Deferred revenue",
    "Accounts receivable",
    "Inventory",
    "Long-term debt",
    "Interest expense",
];
const MATERIALS: &[&str] = &[
    "PLA",
    "ABS",
    "PETG",
    "Nylon",
    "Resin",
    "Graphene",
    "Kevlar",
    "Titanium",
    "Ceramic",
    "Basalt",
    "Aerogel",
    "Polyimide",
];
const COMPOUNDS: &[&str] = &[
    "NaCl", "KBr", "CaCO3", "MgO", "SiO2", "Fe2O3", "Al2O3", "TiO2", "ZnS", "CuSO4", "LiF", "H3BO3",
];

/// Topic families used by the general-domain (Wikipedia-like) generators.
pub const TOPICS: &[&str] = &["sports", "films", "politics", "geography", "music"];

/// Picks `n` distinct items from a pool.
fn distinct<'a>(pool: &[&'a str], n: usize, rng: &mut impl Rng) -> Vec<&'a str> {
    let mut v: Vec<&str> = pool.to_vec();
    v.shuffle(rng);
    v.truncate(n);
    v
}

/// Uniform choice from one of the const word pools above — all non-empty,
/// so the fallback never surfaces.
fn pick<'a>(pool: &'a [&'a str], rng: &mut impl Rng) -> &'a str {
    pool.choose(rng).copied().unwrap_or("")
}

/// A random person name.
pub fn person_name(rng: &mut impl Rng) -> String {
    format!("{} {}", pick(FIRST_NAMES, rng), pick(LAST_NAMES, rng))
}

fn num(rng: &mut impl Rng, lo: i64, hi: i64) -> String {
    rng.gen_range(lo..=hi).to_string()
}

/// Generates a general-domain (Wikipedia-like) table for a topic.
pub fn wiki_table(topic: &str, rng: &mut impl Rng) -> Table {
    let rows = rng.gen_range(4..=8);
    match topic {
        "films" => {
            let names = distinct(FILM_WORDS_A, rows, rng);
            let grid_rows: Vec<Vec<String>> = names
                .iter()
                .map(|a| {
                    vec![
                        format!("{a} {}", pick(FILM_WORDS_B, rng)),
                        person_name(rng),
                        num(rng, 1970, 2022),
                        num(rng, 5, 900),
                        format!("{}.{}", rng.gen_range(4..9), rng.gen_range(0..9)),
                    ]
                })
                .collect();
            build("Feature films", &["film", "director", "year", "box office", "rating"], grid_rows)
        }
        "politics" => {
            let names = distinct(DEPARTMENTS, rows.min(DEPARTMENTS.len()), rng);
            let grid_rows: Vec<Vec<String>> = names
                .iter()
                .map(|d| {
                    vec![
                        d.to_string(),
                        person_name(rng),
                        num(rng, 8, 60),
                        num(rng, 200, 9500),
                        num(rng, 1789, 1990),
                    ]
                })
                .collect();
            build(
                "Federal departments",
                &["department", "secretary", "total deputies", "budget", "founded"],
                grid_rows,
            )
        }
        "geography" => {
            let mut pool: Vec<&(&str, &str)> = COUNTRIES.iter().collect();
            pool.shuffle(rng);
            let grid_rows: Vec<Vec<String>> = pool
                .into_iter()
                .take(rows)
                .map(|(country, capital)| {
                    vec![
                        country.to_string(),
                        capital.to_string(),
                        num(rng, 2, 140),
                        num(rng, 40, 9000),
                    ]
                })
                .collect();
            build("Countries", &["country", "capital", "population", "area"], grid_rows)
        }
        "music" => {
            let names = distinct(ALBUM_WORDS, rows.min(ALBUM_WORDS.len()), rng);
            let grid_rows: Vec<Vec<String>> = names
                .iter()
                .map(|a| {
                    vec![
                        a.to_string(),
                        person_name(rng),
                        num(rng, 1975, 2022),
                        num(rng, 100, 9000),
                        num(rng, 1, 30),
                    ]
                })
                .collect();
            build(
                "Studio albums",
                &["album", "artist", "year", "sales", "weeks on chart"],
                grid_rows,
            )
        }
        // default: sports
        _ => {
            let adjs = distinct(TEAM_ADJ, rows, rng);
            let grid_rows: Vec<Vec<String>> = adjs
                .iter()
                .map(|a| {
                    vec![
                        format!("{a} {}", pick(TEAM_NOUN, rng)),
                        pick(CITIES, rng).to_string(),
                        num(rng, 20, 99),
                        num(rng, 2, 30),
                        num(rng, 0, 20),
                        num(rng, 1000, 65000),
                    ]
                })
                .collect();
            build(
                "League standings",
                &["team", "city", "points", "wins", "losses", "attendance"],
                grid_rows,
            )
        }
    }
}

/// Generates a financial-report table (TAT-QA-like): line items × periods.
pub fn finance_table(rng: &mut impl Rng) -> Table {
    let rows = rng.gen_range(4..=8);
    let year: i64 = rng.gen_range(2015..=2020);
    let items = distinct(FIN_ITEMS, rows, rng);
    let grid_rows: Vec<Vec<String>> = items
        .iter()
        .map(|item| {
            let base = rng.gen_range(300..20000);
            let prev = (base as f64 * rng.gen_range(0.6..1.4)) as i64;
            vec![item.to_string(), base.to_string(), prev.to_string()]
        })
        .collect();
    build(
        "Consolidated statements",
        &["item", &year.to_string(), &(year - 1).to_string()],
        grid_rows,
    )
}

/// Generates a scientific table (SEM-TAB-FACTS-like): samples × measures.
pub fn science_table(rng: &mut impl Rng) -> Table {
    let rows = rng.gen_range(4..=7);
    if rng.gen_bool(0.5) {
        let mats = distinct(MATERIALS, rows, rng);
        let grid_rows: Vec<Vec<String>> = mats
            .iter()
            .map(|m| {
                vec![
                    m.to_string(),
                    format!("{:.2}", rng.gen_range(0.8..8.0)),
                    num(rng, 120, 2100),
                    num(rng, 10, 600),
                ]
            })
            .collect();
        build(
            "Material properties",
            &["material", "density", "melting point", "tensile strength"],
            grid_rows,
        )
    } else {
        let comps = distinct(COMPOUNDS, rows, rng);
        let grid_rows: Vec<Vec<String>> = comps
            .iter()
            .map(|c| {
                vec![
                    c.to_string(),
                    format!("{:.1}", rng.gen_range(20.0..400.0)),
                    format!("{:.2}", rng.gen_range(0.1..9.9)),
                    num(rng, 1, 96),
                ]
            })
            .collect();
        build("Measured compounds", &["compound", "molar mass", "solubility", "yield"], grid_rows)
    }
}

fn build(title: &str, header: &[&str], rows: Vec<Vec<String>>) -> Table {
    let mut grid: Vec<Vec<&str>> = vec![header.to_vec()];
    for r in &rows {
        if r.len() == header.len() {
            grid.push(r.iter().map(String::as_str).collect());
        }
    }
    // Row arity — the only failure `from_strings` has — is enforced above,
    // so the empty-table fallback never surfaces.
    Table::from_strings(title, &grid).unwrap_or_default()
}

/// Generates a paragraph of surrounding text for a table: one or two
/// *extra records* not present in the table (verbalized in the patterns the
/// Text-To-Table extractor understands) plus filler sentences.
pub fn surrounding_text(table: &Table, rng: &mut impl Rng) -> String {
    let mut sentences: Vec<String> = Vec::new();
    sentences.push(filler_sentence(rng));
    for _ in 0..rng.gen_range(1..=2) {
        if let Some(s) = extra_record_sentence(table, rng) {
            sentences.push(s);
        }
    }
    sentences.push(filler_sentence(rng));
    sentences.join(" ")
}

/// A sentence describing a plausible new record matching the table schema.
pub fn extra_record_sentence(table: &Table, rng: &mut impl Rng) -> Option<String> {
    let ecol = table.entity_column();
    // Invent an entity name unlikely to collide with existing rows.
    let entity = loop {
        let candidate = match table.title.as_str() {
            "Consolidated statements" => FIN_ITEMS.choose(rng)?.to_string(),
            "Material properties" => MATERIALS.choose(rng)?.to_string(),
            "Measured compounds" => COMPOUNDS.choose(rng)?.to_string(),
            "Federal departments" => DEPARTMENTS.choose(rng)?.to_string(),
            _ => format!("{} {}", TEAM_ADJ.choose(rng)?, TEAM_NOUN.choose(rng)?),
        };
        let v = Value::text(candidate.clone());
        let exists =
            (0..table.n_rows()).any(|r| table.cell(r, ecol).is_some_and(|c| c.loosely_equals(&v)));
        if !exists {
            break candidate;
        }
    };
    let mut facts: Vec<String> = Vec::new();
    for ci in 0..table.n_cols() {
        if ci == ecol {
            continue;
        }
        let col = table.column_name(ci)?;
        // Sample a plausible value: reuse the column's own distribution.
        let pool: Vec<Value> =
            table.column_values(ci).into_iter().filter(|v| !v.is_null()).collect();
        let v = pool.choose(rng)?;
        let v = match v {
            Value::Number(n) => Value::number((n * rng.gen_range(0.8..1.2)).round()),
            other => other.clone(),
        };
        facts.push(format!("a {col} of {v}"));
    }
    if facts.is_empty() {
        return None;
    }
    let joined = match facts.len() {
        1 => facts.remove(0),
        _ => {
            let last = facts.pop().unwrap_or_default();
            format!("{} and {}", facts.join(", "), last)
        }
    };
    Some(format!("{entity} has {joined}."))
}

fn filler_sentence(rng: &mut impl Rng) -> String {
    const FILLER: &[&str] = &[
        "The figures were reviewed by independent auditors.",
        "Historical context is provided in the appendix.",
        "Several observers noted the unusual circumstances of the period.",
        "The methodology follows the standard reporting framework.",
        "Further details appear in the accompanying notes.",
        "Seasonal effects were not adjusted for in this summary.",
    ];
    pick(FILLER, rng).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::ColumnType;

    #[test]
    fn wiki_tables_have_expected_schemas() {
        let mut rng = StdRng::seed_from_u64(1);
        for topic in TOPICS {
            let t = wiki_table(topic, &mut rng);
            assert!(t.n_rows() >= 4, "{topic}");
            assert!(t.n_cols() >= 4, "{topic}");
            // Every topic schema has at least one text and one numeric column.
            assert!(!t.schema().columns_of_type(ColumnType::Text).is_empty(), "{topic}");
            assert!(!t.schema().columns_of_type(ColumnType::Number).is_empty(), "{topic}");
        }
    }

    #[test]
    fn finance_tables_are_item_by_year() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(2);
        let t = finance_table(&mut rng);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.schema().column(0).ok_or("no column 0")?.ty, ColumnType::Text);
        assert_eq!(t.schema().column(1).ok_or("no column 1")?.ty, ColumnType::Number);
        Ok(())
    }

    #[test]
    fn science_tables_have_numeric_measures() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = science_table(&mut rng);
        assert!(t.schema().columns_of_type(ColumnType::Number).len() >= 2);
    }

    #[test]
    fn surrounding_text_is_extractable() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = finance_table(&mut rng);
        // At least one generated paragraph in 10 must yield an expansion.
        let mut ok = false;
        for _ in 0..10 {
            let p = surrounding_text(&t, &mut rng);
            if textops::text_to_table(&t, &p).is_some() {
                ok = true;
                break;
            }
        }
        assert!(ok, "no surrounding text yielded a table expansion");
    }

    #[test]
    fn extra_record_entities_not_in_table() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(5);
        let t = wiki_table("politics", &mut rng);
        for _ in 0..10 {
            if let Some(s) = extra_record_sentence(&t, &mut rng) {
                let entity = s.split(" has ").next().ok_or("empty sentence")?;
                let ecol = t.entity_column();
                let mut exists = false;
                for r in 0..t.n_rows() {
                    let cell = t.cell(r, ecol).ok_or("entity cell out of range")?;
                    exists |= cell.to_string().eq_ignore_ascii_case(entity);
                }
                assert!(!exists, "{entity} already in table");
            }
        }
        Ok(())
    }

    #[test]
    fn tables_are_random_but_seed_deterministic() {
        let a = wiki_table("sports", &mut StdRng::seed_from_u64(7));
        let b = wiki_table("sports", &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = wiki_table("sports", &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }
}
