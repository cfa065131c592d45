//! Datasets for XSACT experiments.
//!
//! The paper demonstrates XSACT on two crawled datasets (Product Reviews
//! from buzzillions.com, Outdoor Retailer from REI.com) and evaluates on a
//! movie dataset extracted from IMDB. None of those crawls is available, so
//! this crate provides deterministic, seeded synthetic generators with the
//! same schema shapes, plus a hand-built fixture reproducing the paper's
//! Figure 1 worked example *exactly*:
//!
//! * [`fixtures`] — the two TomTom GPS results of Figure 1 with their
//!   printed statistics (11 and 68 reviews, `pro: easy to read: 10`, …).
//! * [`reviews`] — Product Reviews: GPS / phone / camera products, each
//!   with a price, a rating and a set of reviews carrying pros / cons /
//!   best-uses.
//! * [`outdoor`] — Outdoor Retailer: brands with products for outdoor
//!   recreation (category, subcategory, gender, materials, …).
//! * [`movies`] — IMDB-like movie data plus the eight benchmark queries
//!   QM1–QM8 used by Figure 4.
//! * [`jobs`] — a job board (companies → openings → skills/benefits) for
//!   the paper's "employee hiring / job hunting" motivating domain.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod jobs;
pub mod movies;
pub mod outdoor;
pub mod reviews;
pub mod vocab;

pub use jobs::{JobsGen, JobsGenConfig};
pub use movies::{MovieGenConfig, MoviesGen};
pub use outdoor::{OutdoorGen, OutdoorGenConfig};
pub use reviews::{ReviewsGen, ReviewsGenConfig};
