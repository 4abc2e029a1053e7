//! The scenario-spec reader, `ScenarioSpec::from_toml_str`, gated from
//! the outside:
//!
//! - **Golden**: every spec file in the repository — the presets under
//!   `scenarios/` and the frozen benchmark workloads under
//!   `ecnbench/workloads/` (read, never written) — parses to the spec
//!   pinned in `tests/golden/spec_files.txt` (`{:#?}` of each; regenerate
//!   with `ECNUDP_BLESS=1 cargo test --test spec_reader`).
//! - **Layouts** (property): a random subset of the 44 keys with in-range
//!   values parses to the same spec whether it is written as `[section]`
//!   blocks, as dotted root keys, or shuffled with comments and blank
//!   lines between, and every value reads back; keys left out keep their
//!   `paper2015` defaults.
//! - **Refusals** (property): a key written twice is refused as a
//!   duplicate naming the second line, and a misspelt key in any section
//!   is refused naming its dotted path.

#[path = "util/golden.rs"]
mod golden;

use ecnudp::pool::{ScenarioSpec, ScheduleProfile};
use golden::check_golden;
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

#[test]
fn every_spec_file_parses_to_its_golden_spec() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["scenarios", "ecnbench/workloads"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("list spec directory") {
            let name = entry.expect("directory entry").file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".toml") {
                files.push(format!("{dir}/{name}"));
            }
        }
    }
    files.sort();
    let mut out = String::new();
    for file in &files {
        let text = std::fs::read_to_string(root.join(file)).expect("read spec file");
        let spec = ScenarioSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        writeln!(out, "=== {file}\n{spec:#?}").expect("format into a String");
    }
    check_golden("spec_files", &out);
}

// ---------------------------------------------------------------- property

/// A value as the spec file writes it and as the test reads it back.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Int(u64),
    Real(f64),
    Flag(bool),
    Text(String),
}

/// A spec field read back as the value a file would write.
trait ReadBack {
    fn val(&self) -> Val;
}

impl ReadBack for u64 {
    fn val(&self) -> Val {
        Val::Int(*self)
    }
}

impl ReadBack for usize {
    fn val(&self) -> Val {
        Val::Int(*self as u64)
    }
}

impl ReadBack for f64 {
    fn val(&self) -> Val {
        Val::Real(*self)
    }
}

impl ReadBack for bool {
    fn val(&self) -> Val {
        Val::Flag(*self)
    }
}

impl ReadBack for String {
    fn val(&self) -> Val {
        Val::Text(self.clone())
    }
}

impl ReadBack for ScheduleProfile {
    fn val(&self) -> Val {
        Val::Text(format!("{self:?}").to_ascii_lowercase())
    }
}

/// Values `validate()` accepts whatever else the file sets: deployment
/// rates stay small enough that no subset can exhaust the population or
/// its candidate ASes, and `target_chunks` stays below the smallest
/// population drawn.
#[derive(Debug, Clone, Copy)]
enum Domain {
    Int(u64, u64),
    Real(f64, f64),
    Flag,
    Name,
    Profile,
}

use Domain::{Flag, Int, Name, Profile, Real};

const RATE: Domain = Real(0.0, 4.0);
const SHARE: Domain = Real(0.0, 1.0);
const PER_1000: Domain = Real(0.0, 1000.0);

type Read = fn(&ScenarioSpec) -> Val;

/// One row of [`KEYS`]: a dotted path, its in-range values, and how to
/// read the field it names off a parsed spec.
macro_rules! key {
    ($domain:expr, $first:ident $(. $rest:ident)*) => {
        (
            concat!(stringify!($first) $(, ".", stringify!($rest))*),
            $domain,
            (|s| s.$first $(.$rest)*.val()) as Read,
        )
    };
}

/// Every key of the format.
const KEYS: [(&str, Domain, Read); 44] = [
    key!(Name, name),
    key!(Int(0, u64::MAX), seed),
    key!(Int(1, 13), vantage_count),
    key!(Flag, traceroute),
    key!(Int(2_000, 5_000), population.servers),
    key!(SHARE, population.web_fraction),
    key!(SHARE, population.web_ecn_on),
    key!(SHARE, population.web_ecn_reflect),
    key!(SHARE, population.plain_ok_fraction),
    key!(PER_1000, population.always_down_per_1000),
    key!(PER_1000, population.churn_per_1000),
    key!(SHARE, population.flapping_fraction),
    key!(Int(2, 256), topology.t1_count),
    key!(Int(2, 256), topology.t2_count),
    key!(Int(0, 524_288), topology.dest_as_count),
    key!(RATE, middleboxes.ect_droppers_per_1000),
    key!(RATE, middleboxes.flaky_ect_droppers_per_1000),
    key!(RATE, middleboxes.not_ect_droppers_per_1000),
    key!(RATE, middleboxes.ec2_not_ect_droppers_per_1000),
    key!(RATE, middleboxes.bleach_pe_per_1000),
    key!(RATE, middleboxes.bleach_border_per_1000),
    key!(RATE, middleboxes.bleach_interior_per_1000),
    key!(RATE, middleboxes.bleach_access_per_1000),
    key!(RATE, middleboxes.bleach_prob_pe_per_1000),
    key!(RATE, middleboxes.bleach_prob_access_per_1000),
    key!(SHARE, middleboxes.bleach_prob),
    key!(RATE, middleboxes.aqm_red_per_1000),
    key!(RATE, middleboxes.aqm_codel_per_1000),
    key!(RATE, middleboxes.ce_suppressors_per_1000),
    key!(RATE, middleboxes.ect1_downgrade_per_1000),
    key!(SHARE, middleboxes.aqm_red_prob),
    key!(Int(0, 10_000_000), middleboxes.aqm_codel_target_us),
    key!(Int(8, 100_000_000), middleboxes.aqm_rate_kbps),
    key!(Int(0, 64), validator.packets),
    key!(Flag, validator.ce_canary),
    key!(PER_1000, validator.ect1_per_1000),
    key!(PER_1000, links.vantage_loss_scale),
    key!(SHARE, links.edge_loss),
    key!(Int(0, 60_000_000), links.core_delay_us),
    key!(Int(0, 60_000_000), links.edge_delay_us),
    key!(Profile, schedule.profile),
    key!(Int(0, 1 << 32), schedule.traces_per_vantage),
    key!(Int(0, 100_000), schedule.discovery_rounds),
    key!(Int(1, 2_000), schedule.target_chunks),
];

/// Names that exercise the string reader: a `#` inside quotes is no
/// comment, and `"`, `\`, tab and newline are written as escapes.
const NAMES: [&str; 5] = [
    "drawn",
    "with space",
    "hash # inside",
    "quote \" and back\\slash",
    "tab\tand\nnewline",
];

/// The value `raw` picks from `domain`.
fn draw(domain: Domain, raw: u64) -> Val {
    match domain {
        Int(lo, hi) => Val::Int(match (hi - lo).checked_add(1) {
            Some(span) => lo + raw % span,
            None => raw,
        }),
        Real(lo, hi) => {
            let unit = (raw >> 11) as f64 / (1u64 << 53) as f64;
            Val::Real(lo + unit * (hi - lo))
        }
        Flag => Val::Flag(raw & 1 == 1),
        Name => Val::Text(NAMES[(raw % NAMES.len() as u64) as usize].into()),
        Profile => Val::Text(if raw & 1 == 1 { "quick" } else { "paper" }.into()),
    }
}

/// `val` as a TOML value; `style` varies the spelling (digit separators,
/// `{}` against `{:?}` floats, profile case) without changing the value.
fn render(val: &Val, style: u64) -> String {
    match val {
        Val::Int(n) if style & 1 == 1 => {
            let digits = n.to_string();
            let mut out = String::new();
            for (i, c) in digits.chars().enumerate() {
                if i > 0 && (digits.len() - i) % 3 == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            out
        }
        Val::Int(n) => n.to_string(),
        Val::Real(x) if style & 1 == 1 => format!("{x:?}"),
        Val::Real(x) => format!("{x}"),
        Val::Flag(b) => b.to_string(),
        Val::Text(s) => {
            let s = if style & 2 == 2 && (s == "paper" || s == "quick") {
                s.to_ascii_uppercase()
            } else {
                s.clone()
            };
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
    }
}

/// A dotted key as (section, leaf); root keys have the section `""`.
fn split(key: &str) -> (&str, &str) {
    key.rsplit_once('.').unwrap_or(("", key))
}

/// One `key = value` line of the file under test.
struct Entry {
    key: String,
    val: Val,
    style: u64,
}

impl Entry {
    fn line(&self, key: &str) -> String {
        format!("{key} = {}", render(&self.val, self.style))
    }
}

/// A file's lines, each key line tagged with the index of its entry.
type Lines = Vec<(Option<usize>, String)>;

/// `[section]` blocks, root keys first.
fn sectioned(entries: &[Entry]) -> Lines {
    let mut idx: Vec<usize> = (0..entries.len()).collect();
    idx.sort_by_key(|&i| split(&entries[i].key).0);
    let mut lines = Vec::new();
    let mut section = "";
    for i in idx {
        let (sec, leaf) = split(&entries[i].key);
        if sec != section {
            lines.push((None, format!("[{sec}]")));
            section = sec;
        }
        lines.push((Some(i), entries[i].line(leaf)));
    }
    lines
}

/// Every key dotted from the root, in entry order.
fn dotted(entries: &[Entry]) -> Lines {
    let keyed = entries.iter().enumerate();
    keyed.map(|(i, e)| (Some(i), e.line(&e.key))).collect()
}

/// Dotted root keys in `order`, with comment lines, blank lines, inline
/// comments and loose spacing picked by `noise`.
fn shuffled(entries: &[Entry], order: &[u64], noise: u64) -> Lines {
    let mut idx: Vec<usize> = (0..entries.len()).collect();
    idx.sort_by_key(|&i| order[i % order.len()]);
    let mut lines = vec![(None, "# a shuffled spec".to_string())];
    for (n, i) in idx.into_iter().enumerate() {
        let bits = noise.rotate_left(3 * n as u32) ^ order[i % order.len()];
        let e = &entries[i];
        if bits & 1 == 1 {
            lines.push((None, String::new()));
        }
        if bits & 2 == 2 {
            lines.push((None, format!("   # about {}", e.key)));
        }
        let mut line = if bits & 4 == 4 {
            format!("  {}   =\t{}", e.key, render(&e.val, e.style))
        } else {
            e.line(&e.key)
        };
        if bits & 8 == 8 {
            line.push_str("  # trailing");
        }
        lines.push((Some(i), line));
    }
    lines
}

/// One of the three layouts, picked by `noise`.
fn layout(entries: &[Entry], order: &[u64], noise: u64) -> Lines {
    match noise % 3 {
        0 => sectioned(entries),
        1 => dotted(entries),
        _ => shuffled(entries, order, noise),
    }
}

fn text(lines: &Lines) -> String {
    let lines: Vec<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
    lines.join("\n")
}

/// The entries `pick` selects, with values drawn from `raw`.
fn entries(pick: &[bool], raw: &[u64], style: &[u64]) -> Vec<Entry> {
    KEYS.iter()
        .enumerate()
        .filter(|&(i, _)| pick[i])
        .map(|(i, &(key, domain, _))| Entry {
            key: key.to_string(),
            val: draw(domain, raw[i]),
            style: style[i],
        })
        .collect()
}

/// A dotted path that is no key and no section of the format, made from
/// `key` by appending, doubling or dropping a character of its last
/// part.
fn misspell(key: &str, how: u64) -> String {
    let (section, leaf) = split(key);
    let at = (how >> 2) as usize % leaf.len();
    let typo = match how % 3 {
        0 => format!("{leaf}x"),
        1 => format!("{}{}", &leaf[..=at], &leaf[at..]),
        _ => format!("{}{}", &leaf[..at], &leaf[at + 1..]),
    };
    let path = |typo: &str| match section {
        "" => typo.to_string(),
        _ => format!("{section}.{typo}"),
    };
    let taken = |p: &str| {
        KEYS.iter()
            .any(|&(k, _, _)| k == p || k.starts_with(&format!("{p}.")))
    };
    if typo.is_empty() || taken(&path(&typo)) {
        path(&format!("{leaf}_typo"))
    } else {
        path(&typo)
    }
}

proptest! {
    #[test]
    fn layouts_parse_to_the_same_spec_and_every_value_reads_back(
        pick in vec(any::<bool>(), 44),
        raw in vec(any::<u64>(), 44),
        style in vec(any::<u64>(), 44),
        order in vec(any::<u64>(), 44),
        noise in any::<u64>(),
    ) {
        let entries = entries(&pick, &raw, &style);
        let mut specs = Vec::new();
        for lines in [
            sectioned(&entries),
            dotted(&entries),
            shuffled(&entries, &order, noise),
        ] {
            let text = text(&lines);
            match ScenarioSpec::from_toml_str(&text) {
                Ok(spec) => specs.push(spec),
                Err(e) => return Err(format!("{e}\n--- file:\n{text}")),
            }
        }
        prop_assert_eq!(&specs[0], &specs[1]);
        prop_assert_eq!(&specs[0], &specs[2]);
        let paper = ScenarioSpec::paper2015();
        for &(key, _, read) in &KEYS {
            let want = match entries.iter().find(|e| e.key == key) {
                Some(e) => e.val.clone(),
                None => read(&paper),
            };
            prop_assert_eq!(read(&specs[0]), want, "{}", key);
        }
    }

    #[test]
    fn a_key_written_twice_is_refused_naming_the_second_line(
        pick in vec(any::<bool>(), 44),
        raw in vec(any::<u64>(), 44),
        style in vec(any::<u64>(), 44),
        order in vec(any::<u64>(), 44),
        noise in any::<u64>(),
        which in 0usize..44,
        again in any::<u64>(),
    ) {
        let mut pick = pick;
        pick[which] = true;
        let mut entries = entries(&pick, &raw, &style);
        let first = entries
            .iter()
            .position(|e| e.key == KEYS[which].0)
            .expect("picked");
        let repeat = Entry {
            key: entries[first].key.clone(),
            val: draw(KEYS[which].1, again),
            style: again,
        };
        entries.insert(first + 1, repeat);
        let lines = layout(&entries, &order, noise);
        let second = lines
            .iter()
            .enumerate()
            .filter(|(_, (entry, _))| matches!(entry, Some(i) if *i == first || *i == first + 1))
            .nth(1)
            .map(|(n, _)| n + 1)
            .expect("both lines written");
        let text = text(&lines);
        let e = ScenarioSpec::from_toml_str(&text)
            .err()
            .ok_or_else(|| format!("a repeated {} was accepted:\n{text}", KEYS[which].0))?;
        prop_assert_eq!(&e.path, &format!("line {second}"), "{}\n--- file:\n{}", e, text);
        prop_assert!(e.message.contains("duplicate"), "{}", e);
        prop_assert!(e.message.contains(KEYS[which].0), "{}", e);
    }

    #[test]
    fn a_misspelt_key_is_refused_naming_its_dotted_path(
        pick in vec(any::<bool>(), 44),
        raw in vec(any::<u64>(), 44),
        style in vec(any::<u64>(), 44),
        order in vec(any::<u64>(), 44),
        noise in any::<u64>(),
        which in 0usize..44,
        how in any::<u64>(),
    ) {
        let (key, domain, _) = KEYS[which];
        let path = misspell(key, how);
        let mut entries = entries(&pick, &raw, &style);
        let at = (how >> 32) as usize % (entries.len() + 1);
        entries.insert(at, Entry {
            key: path.clone(),
            val: draw(domain, raw[which]),
            style: style[which],
        });
        let text = text(&layout(&entries, &order, noise));
        let e = ScenarioSpec::from_toml_str(&text)
            .err()
            .ok_or_else(|| format!("misspelt {path} was accepted:\n{text}"))?;
        prop_assert_eq!(&e.path, &path, "{}\n--- file:\n{}", e, text);
        prop_assert!(e.message.contains("unknown key"), "{}", e);
        let leaf = split(key).1;
        prop_assert!(e.message.contains(leaf), "lists the valid keys: {}", e);
    }
}
