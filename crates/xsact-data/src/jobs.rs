//! Job-postings dataset — the paper's third motivating domain.
//!
//! §1 of the paper lists "employee hiring, job/institution hunting" next to
//! online shopping as domains where result differentiation is critical.
//! This generator synthesises a job board: companies with openings, each
//! opening carrying a title, location, salary band, seniority and sets of
//! required skills and benefits — multi-valued attributes whose histograms
//! differ per company, exactly the structure DFSs surface ("company A wants
//! rust+distributed systems, company B wants java+frontend").

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xsact_xml::Document;

/// Companies with their hiring focus (preferred skills).
const COMPANIES: &[(&str, &[&str])] = &[
    ("Acme Analytics", &["sql", "python", "statistics"]),
    ("ByteForge", &["rust", "distributed_systems", "linux"]),
    ("CloudNine", &["kubernetes", "go", "networking"]),
    ("DataMill", &["sql", "spark", "python"]),
    ("EdgeWorks", &["rust", "embedded", "c"]),
    ("FrontRow", &["javascript", "react", "css"]),
];

/// The full skill pool.
const SKILLS: &[&str] = &[
    "sql",
    "python",
    "statistics",
    "rust",
    "distributed_systems",
    "linux",
    "kubernetes",
    "go",
    "networking",
    "spark",
    "embedded",
    "c",
    "javascript",
    "react",
    "css",
    "java",
];

/// Benefit flags.
const BENEFITS: &[&str] =
    &["remote_work", "equity", "bonus", "training_budget", "gym", "relocation"];

/// Job titles by seniority index.
const TITLES: &[&str] =
    &["software_engineer", "data_engineer", "site_reliability_engineer", "ml_engineer"];

/// Office locations.
const LOCATIONS: &[&str] = &["berlin", "london", "new_york", "tokyo", "remote"];

/// Configuration of the job-postings generator.
#[derive(Debug, Clone, Copy)]
pub struct JobsGenConfig {
    /// RNG seed.
    pub seed: u64,
    /// Inclusive range of openings per company.
    pub openings: (usize, usize),
    /// Probability that a required skill comes from the company's focus.
    pub focus_bias: f64,
}

impl Default for JobsGenConfig {
    fn default() -> Self {
        JobsGenConfig { seed: 42, openings: (8, 30), focus_bias: 0.7 }
    }
}

/// Deterministic job-board generator over all the companies of its table.
#[derive(Debug, Clone)]
pub struct JobsGen {
    config: JobsGenConfig,
}

impl JobsGen {
    /// Creates a generator with the given configuration.
    pub fn new(config: JobsGenConfig) -> Self {
        JobsGen { config }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Document {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut doc = Document::new("jobboard");
        let root = doc.root();

        for (company_name, focus) in COMPANIES {
            let company = doc.add_element(root, "company");
            doc.add_leaf(company, "name", *company_name);
            doc.add_leaf(company, "employees", rng.random_range(50..5_000u32).to_string());
            let openings = doc.add_element(company, "openings");
            let n = rng.random_range(cfg.openings.0..=cfg.openings.1);
            for _ in 0..n {
                let opening = doc.add_element(openings, "opening");
                doc.add_leaf(opening, "title", TITLES[rng.random_range(0..TITLES.len())]);
                doc.add_leaf(opening, "location", LOCATIONS[rng.random_range(0..LOCATIONS.len())]);
                doc.add_leaf(
                    opening,
                    "seniority",
                    ["junior", "mid", "senior"][rng.random_range(0..3)],
                );
                doc.add_leaf(
                    opening,
                    "salary",
                    (50_000 + 10_000 * rng.random_range(0..8u32)).to_string(),
                );
                let requirements = doc.add_element(opening, "requirements");
                let k = rng.random_range(2..5usize);
                for _ in 0..k {
                    let skill = if rng.random_bool(cfg.focus_bias) {
                        focus[rng.random_range(0..focus.len())]
                    } else {
                        SKILLS[rng.random_range(0..SKILLS.len())]
                    };
                    doc.add_leaf(requirements, "skill", skill);
                }
                let benefits = doc.add_element(opening, "benefits");
                for benefit in BENEFITS {
                    if rng.random_bool(0.35) {
                        doc.add_leaf(benefits, *benefit, "yes");
                    }
                }
            }
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::writer::write_subtree;

    fn small() -> Document {
        JobsGen::new(JobsGenConfig { seed: 3, openings: (4, 8), focus_bias: 0.8 }).generate()
    }

    #[test]
    fn all_companies_generated() {
        let doc = small();
        assert_eq!(doc.children_by_tag(doc.root(), "company").count(), COMPANIES.len());
    }

    #[test]
    fn openings_have_schema() {
        let doc = small();
        for n in doc.all_nodes() {
            if doc.is_element(n) && doc.tag(n) == "opening" {
                for tag in ["title", "location", "seniority", "salary", "requirements"] {
                    assert!(doc.child_by_tag(n, tag).is_some(), "missing {tag}");
                }
                let req = doc.child_by_tag(n, "requirements").unwrap();
                assert!(doc.children_by_tag(req, "skill").count() >= 2);
            }
        }
    }

    #[test]
    fn company_focus_dominates_requirements() {
        let doc =
            JobsGen::new(JobsGenConfig { seed: 9, openings: (30, 30), focus_bias: 0.9 }).generate();
        // ByteForge's skills should be mostly from its focus pool.
        let byteforge = doc
            .children_by_tag(doc.root(), "company")
            .find(|&b| {
                doc.child_by_tag(b, "name")
                    .map(|n| doc.text_content(n) == "ByteForge")
                    .unwrap_or(false)
            })
            .unwrap();
        let focus: &[&str] = &["rust", "distributed_systems", "linux"];
        let (mut in_focus, mut total) = (0usize, 0usize);
        for n in doc.descendants(byteforge) {
            if doc.is_element(n) && doc.tag(n) == "skill" {
                total += 1;
                if focus.contains(&doc.text_content(n).as_str()) {
                    in_focus += 1;
                }
            }
        }
        assert!(total >= 60);
        assert!(in_focus * 3 > total * 2, "focus too weak: {in_focus}/{total}");
    }

    #[test]
    fn skills_come_from_the_pool() {
        let doc = small();
        for n in doc.all_nodes() {
            if doc.is_element(n) && doc.tag(n) == "skill" {
                let skill = doc.text_content(n);
                assert!(SKILLS.contains(&skill.as_str()), "unknown skill {skill}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = JobsGenConfig { seed: 4, openings: (3, 6), focus_bias: 0.5 };
        let a = JobsGen::new(cfg).generate();
        let b = JobsGen::new(cfg).generate();
        assert_eq!(write_subtree(&a, a.root()), write_subtree(&b, b.root()));
    }

    #[test]
    fn company_focuses_use_known_skills() {
        for (company, focus) in COMPANIES {
            for skill in *focus {
                assert!(SKILLS.contains(skill), "{company} focus {skill} unknown");
            }
        }
    }
}
