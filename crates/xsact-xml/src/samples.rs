//! Inputs of the differential tests: every dataset generator's output,
//! seeded random documents that use the whole syntax the scanner knows, and
//! seeded byte-mutations of each — the malformed inputs that reach every
//! error path.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Mutations drawn per well-formed input.
const MUTATIONS: u64 = 64;

/// Calls `check(label, input)` on every sample: each generated document,
/// 64 random documents, and 64 mutations of every one of those.
pub(crate) fn for_each_input(mut check: impl FnMut(&str, &str)) {
    for (name, xml) in generated() {
        check(name, &xml);
        for seed in 0..MUTATIONS {
            check(&format!("{name}, mutation {seed}"), &mutate(&xml, seed));
        }
    }
    for seed in 0..64 {
        let xml = random_xml(seed);
        check(&format!("random {seed}"), &xml);
        for m in 0..MUTATIONS {
            check(&format!("random {seed}, mutation {m}"), &mutate(&xml, seed << 8 | m));
        }
    }
}

/// The compact XML of every `xsact-data` generator, at sizes that keep a
/// debug-build test run short.
///
/// `xsact-data` links the plain build of this crate, so its `Document` is
/// another type than the one under test: only text crosses over.
pub(crate) fn generated() -> Vec<(&'static str, String)> {
    use xsact_data::{
        fixtures, JobsGen, JobsGenConfig, MovieGenConfig, MoviesGen, OutdoorGen, OutdoorGenConfig,
        ReviewsGen, ReviewsGenConfig,
    };
    let movies = MovieGenConfig { movies: 40, ..Default::default() };
    let reviews = ReviewsGenConfig { products: 4, reviews: (2, 12), ..Default::default() };
    let outdoor = OutdoorGenConfig { products: (1, 3), ..Default::default() };
    let jobs = JobsGenConfig { openings: (1, 3), ..Default::default() };
    vec![
        ("figure1", fixtures::figure1_document().to_string()),
        ("movies", MoviesGen::new(movies).generate().to_string()),
        ("reviews", ReviewsGen::new(reviews).generate().to_string()),
        ("outdoor", OutdoorGen::new(outdoor).generate().to_string()),
        ("jobs", JobsGen::new(jobs).generate().to_string()),
    ]
}

const NAMES: [&str; 8] = ["a", "item", "ns:a-b.c_d", "_x", "naïve", "日本", "B2", "clé"];
const ATTR_NAMES: [&str; 5] = ["id", "xml:lang", "clé", "_", "v.1"];
const TEXTS: [&str; 10] = [
    "plain text",
    "x &lt; y &amp; z",
    "&#65;&#x42;&#x2603;",
    "é ü ☃ snow",
    "  padded  ",
    "'quoted' \"twice\"",
    "a > b",
    "]] >",
    "\n\t ",
    " ",
];
const VALUES: [&str; 6] = ["", "1", "a&amp;b", "ü &#x2603;", "two words", "&lt;tag&gt;"];
const SKIPPED: [&str; 5] = [
    "<!-- note -->",
    "<!---->",
    "<?pi target?>",
    "<!-- <not a=\"tag\"> & -->",
    "<?xml-stylesheet href=\"é\"?>",
];
const CDATA: [&str; 4] =
    ["<![CDATA[1 < 2 & 3 &amp;]]>", "<![CDATA[]]>", "<![CDATA[ ]]>", "<![CDATA[☃ ]] >]]>"];
const PROLOGS: [&str; 5] = [
    "",
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n",
    "<!DOCTYPE r SYSTEM \"r.dtd\">",
    "<!DOCTYPE r [ <!ELEMENT a (b)> <!ENTITY e \"v>\"> ]>\n",
    "<?xml version=\"1.0\"?><!-- é --><!DOCTYPE r [<!ATTLIST a id CDATA #IMPLIED>]> ",
];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.random_range(0..pool.len())]
}

/// A well-formed document drawn from the whole syntax: prolog, DOCTYPE with
/// an internal subset, comments, processing instructions, CDATA, entities,
/// both quote styles, optional whitespace inside tags, non-ASCII names and
/// text.
pub(crate) fn random_xml(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::from(pick(&mut rng, &PROLOGS));
    write_element(&mut rng, 0, &mut out);
    if rng.random_bool(0.3) {
        out.push_str(pick(&mut rng, &SKIPPED));
        out.push('\n');
    }
    out
}

fn write_element(rng: &mut StdRng, depth: usize, out: &mut String) {
    let name = pick(rng, &NAMES);
    out.push('<');
    out.push_str(name);
    // Distinct attribute names: a rotation of the pool.
    let first = rng.random_range(0..ATTR_NAMES.len());
    for i in 0..rng.random_range(0..=3usize) {
        out.push_str(pick(rng, &[" ", "  ", "\n"]));
        out.push_str(ATTR_NAMES[(first + i) % ATTR_NAMES.len()]);
        out.push_str(pick(rng, &["=", " = ", "= "]));
        let value = pick(rng, &VALUES);
        let quote = if rng.random_bool(0.5) { '"' } else { '\'' };
        out.push(quote);
        out.push_str(value);
        out.push(quote);
    }
    out.push_str(pick(rng, &["", "", " "]));
    let children = if depth >= 5 { 0 } else { rng.random_range(0..=4usize) };
    if children == 0 && rng.random_bool(0.5) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..children {
        match rng.random_range(0..10u32) {
            0..=3 => write_element(rng, depth + 1, out),
            4..=6 => out.push_str(pick(rng, &TEXTS)),
            7 => out.push_str(pick(rng, &CDATA)),
            _ => out.push_str(pick(rng, &SKIPPED)),
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push_str(pick(rng, &["", "", " ", "\n"]));
    out.push('>');
}

/// One seeded byte-level mutation of `xml`: truncate, flip a bit, delete a
/// byte, repeat a slice, or insert a character that matters to the scanner.
/// A mutation that breaks a multi-byte character leaves U+FFFD behind.
pub(crate) fn mutate(xml: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d75_7461_7465);
    let mut bytes = xml.as_bytes().to_vec();
    let at = rng.random_range(0..=bytes.len());
    match rng.random_range(0..10u32) {
        0 => bytes.truncate(at),
        1 if at < bytes.len() => bytes[at] ^= 1 << rng.random_range(0..8u32),
        2 if at < bytes.len() => {
            bytes.remove(at);
        }
        3 => {
            let end = (at + rng.random_range(1..=24usize)).min(bytes.len());
            let slice = bytes[at..end].to_vec();
            let to = rng.random_range(0..=bytes.len());
            bytes.splice(to..to, slice);
        }
        _ => {
            let insert = pick(&mut rng, &["<", "&", "\"", "'", ">", "/", "=", "é", "☃", " ", "]"]);
            bytes.splice(at..at, insert.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
