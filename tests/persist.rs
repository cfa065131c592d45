//! The `.xidx` I/O contract: one buffer per file in each direction,
//! allocation bounded by the file, bytes that never change, and a loader
//! that answers any damage with a typed error or a whole document — and
//! the same bound for the other file that arrives from outside, the XML.
//!
//! This binary installs a counting allocator (per-thread byte counts, so
//! the harness's parallel test threads do not disturb one another); the
//! rest of the suite keeps the system allocator.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};
use xsact::data::fixtures::figure1_document;
use xsact::data::{MovieGenConfig, MoviesGen};
use xsact::index::{load_image, save_image, InvertedIndex, Query, SearchEngine};
use xsact::xml::{parse_document, Document, ImageReader, NodeId, WordHasher, XmlError};
use xsact::{Workbench, XsactError};

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counter is a
// const-initialised thread-local `Cell` without a destructor, so touching
// it never allocates and never touches memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        // SAFETY: forwarded with the caller's guarantees (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        // SAFETY: forwarded with the caller's guarantees (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        // SAFETY: forwarded with the caller's guarantees (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread requested from the allocator while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// The benchmark's document: 500 movies, seed 42, a ~0.5 MB image.
fn movies_document() -> Document {
    MoviesGen::new(MovieGenConfig { seed: 42, movies: 500, ..Default::default() }).generate()
}

fn saved(doc: Document) -> Vec<u8> {
    let mut bytes = Vec::new();
    Workbench::from_document(doc).save_index(&mut bytes).expect("save to a Vec");
    bytes
}

/// Counts the calls that reach the underlying reader / writer — what
/// would be `read(2)` / `write(2)` on a file.
struct Counting<T> {
    inner: T,
    calls: usize,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        self.inner.read(buf)
    }
}

impl<W: Write> Write for Counting<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Field-by-field I/O cost one call per `u32`/`u8`/`u64` — about a
/// hundred thousand for this image. The save streams through one 64 KiB
/// buffer (an assembled ~0.5 MB file per ingest worker cost `cold_start`
/// 9 % of its peak RSS) and the load drains the file once, so either
/// call count follows the file's length, independent of how many fields
/// it holds.
#[test]
fn save_and_load_make_a_constant_number_of_io_calls() {
    let wb = Workbench::from_document(movies_document());
    let mut sink = Counting { inner: Vec::new(), calls: 0 };
    wb.save_index(&mut sink).unwrap();
    let len = sink.inner.len();
    assert!(len > 500_000, "fixture image is ~0.5 MB, got {len}");
    // One write per full buffer, one for the text arena that bypasses it,
    // one for the last partial buffer.
    assert!(sink.calls <= len / (64 << 10) + 2, "{} writes for {len} bytes", sink.calls);

    // A `File` is read in a handful of growing chunks; what matters is
    // that the count follows the byte length, not the field count.
    let mut source = Counting { inner: sink.inner.as_slice(), calls: 0 };
    let restored = Workbench::from_persisted_index(movies_document(), &mut source).unwrap();
    assert!(source.calls <= 32, "{} reads for {} bytes", source.calls, sink.inner.len());
    assert_eq!(
        restored.query("drama family").unwrap().ranking().hits,
        wb.query("drama family").unwrap().ranking().hits
    );
}

/// `.xidx` v7 bytes — the document image and its index — as this format's
/// first writer wrote them (length, and the trailer: a [`WordHasher`] over
/// every other byte) for two seeded fixtures: the format does not move
/// unless a change means it to.
#[test]
fn saved_bytes_are_what_the_streaming_writer_wrote() {
    for (name, doc, len, trailer) in [
        ("figure1", figure1_document(), 11_154, 0xcda4_0a98_9eb4_fc11_u64),
        ("movies", movies_document(), 577_565, 0x411e_01bb_d44e_0f6b_u64),
    ] {
        let bytes = saved(doc);
        assert_eq!(bytes.len(), len, "{name}: file length");
        let (body, stored) = bytes.split_at(len - 8);
        assert_eq!(u64::from_le_bytes(stored.try_into().unwrap()), trailer, "{name}: trailer");
        // The trailer pins the body only if it really is its hash.
        assert_eq!(WordHasher::hash(body), trailer, "{name}: trailer is the hash of the body");
    }
}

/// What a failed load may cost that does not come from the file: the
/// error value itself (a boxed message).
const FIXED_COST: usize = 256;

fn assert_rejected_within(bytes: &[u8], what: &str) {
    let (result, allocated) = allocated_by(|| load_image(&mut &bytes[..], None, &mut Vec::new()));
    let err = result.expect_err(what);
    assert!(
        matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
        "{what}: untyped error {err:?}"
    );
    assert!(
        allocated <= bytes.len() + FIXED_COST,
        "{what}: allocated {allocated} bytes for a {}-byte file",
        bytes.len()
    );
}

/// `bytes` with a trailer that matches them, so a test's damage reaches
/// the structural checks instead of stopping at the checksum.
fn sealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let trailer = WordHasher::hash(&bytes);
    bytes.extend_from_slice(&trailer.to_le_bytes());
    bytes
}

/// Offsets in a saved image: of each document-section count (names,
/// paths, nodes, attribute records, text length) and of the index body.
struct Offsets {
    names: usize,
    paths: usize,
    nodes: usize,
    attrs: usize,
    text: usize,
    index: usize,
}

fn offsets(bytes: &[u8]) -> Offsets {
    let u32_at = |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let names = 16;
    let mut pos = names + 4;
    for _ in 0..u32_at(names) {
        pos += 4 + u32_at(pos);
    }
    let paths = pos;
    let nodes = paths + 4 + 8 * u32_at(paths);
    let attrs = nodes + 4 + 12 * u32_at(nodes);
    let text = attrs + 4 + 16 * u32_at(attrs);
    let index = text + 4 + u32_at(text);
    let mut r = ImageReader::new(&bytes[16..]);
    Document::read_image(&mut r, None).unwrap();
    assert_eq!(bytes.len() - r.rest().len(), index, "the offsets walk the document section");
    Offsets { names, paths, nodes, attrs, text, index }
}

/// A truncated file — any proper prefix — is a typed error reached
/// before anything but the read buffer is allocated.
#[test]
fn every_proper_prefix_is_rejected_without_allocating_past_the_file() {
    let bytes = saved(figure1_document());
    for cut in 0..bytes.len() {
        assert_rejected_within(&bytes[..cut], &format!("prefix of {cut} bytes"));
    }
    // The same holds when the prefix is sealed with a valid trailer: the
    // sections measure themselves against what is there.
    for cut in 16..bytes.len() - 8 {
        let prefix = sealed(bytes[..cut].to_vec());
        assert_rejected_within(&prefix, &format!("sealed prefix of {cut} bytes"));
    }
    // Through the facade the same failure is the typed `Io` variant.
    let err = Workbench::from_persisted_index(figure1_document(), &mut &bytes[..bytes.len() / 2])
        .unwrap_err();
    assert!(matches!(err, XsactError::Io(_)), "{err}");
}

/// Headers that declare more than the file holds: every count — of the
/// document section and of the index — is checked against the bytes that
/// are really there before it sizes an allocation.
#[test]
fn counts_beyond_the_file_length_are_rejected_without_allocating_for_them() {
    let valid = saved(figure1_document());
    let at = offsets(&valid);
    let body = &valid[..valid.len() - 8];
    let with = |pos: usize, value: u32| {
        let mut bytes = body.to_vec();
        bytes[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
        sealed(bytes)
    };
    for (what, pos) in [
        ("names", at.names),
        ("name length", at.names + 4),
        ("paths", at.paths),
        ("nodes", at.nodes),
        ("attribute records", at.attrs),
        ("text length", at.text),
        ("terms", at.index),
        ("term length", at.index + 16),
    ] {
        assert_rejected_within(&with(pos, u32::MAX), &format!("huge {what}"));
    }
    let index_header = |terms: u32, total: u32, frames: u32, words: u32| {
        let mut bytes = valid[..at.index].to_vec();
        for count in [terms, total, frames, words] {
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        bytes
    };
    // The largest values that pass the header's own sanity caps.
    let (max_total, max_words) = (1 << 28, 1 << 25);
    for (what, head) in [
        ("terms", index_header(u32::MAX, 0, 0, 0)),
        ("frames", index_header(0, max_total, max_total, 0)),
        ("payload words", index_header(0, 0, 0, max_words)),
        ("everything", index_header(u32::MAX, max_total, max_total, max_words)),
    ] {
        assert_rejected_within(&sealed(head.clone()), &format!("bare header, huge {what}"));
        // The same header in front of a real body: long enough to start
        // parsing, never long enough for what it declares.
        let mut grafted = head;
        grafted.extend_from_slice(&body[at.index + 16..]);
        assert_rejected_within(&sealed(grafted), &format!("grafted header, huge {what}"));
    }
}

/// A v4 file — the index alone behind a structural fingerprint, with an
/// FNV-1a trailer — is the typed version error, as are v1–v3 headers:
/// the caller rebuilds from the XML.
#[test]
fn v4_files_get_the_typed_version_error() {
    let image = saved(figure1_document());
    let at = offsets(&image);
    let mut v4 = b"XIDX".to_vec();
    v4.extend_from_slice(&4u32.to_le_bytes());
    v4.extend_from_slice(&0x1de2_13bd_5596_3121_u64.to_le_bytes());
    v4.extend_from_slice(&image[at.index..image.len() - 8]);
    let fnv = v4
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3));
    v4.extend_from_slice(&fnv.to_le_bytes());
    for version in 1..=4u32 {
        let mut old = v4.clone();
        old[4..8].copy_from_slice(&version.to_le_bytes());
        assert_rejected_within(&old, &format!("v{version}"));
        let err = load_image(&mut old.as_slice(), None, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let want = format!("unsupported index version {version}");
        assert!(err.to_string().contains(&want), "v{version}: {err}");
    }
}

/// `.xidx` v5's hash: the serial chain alone, one step per word of the
/// whole input, with no lanes.
fn v5_hash(bytes: &[u8]) -> u64 {
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words.iter().fold(0, |h, &word| step(h, u64::from_le_bytes(word)));
    let last = tail.iter().rev().fold(0, |last, &b| last << 8 | u64::from(b));
    step(step(h, last), bytes.len() as u64)
}

/// A v5 file — this layout under the serial hash, its digest and trailer
/// the chain's — is the typed version error before its trailer is read:
/// the caller rebuilds from the XML, once.
#[test]
fn v5_files_get_the_typed_version_error() {
    // Under one 32-byte block the two hashes are one.
    for short in [&b""[..], b"review", b"Product_Line easyToRead=\"YES\""] {
        assert_eq!(v5_hash(short), WordHasher::hash(short), "{short:?}");
    }
    let xml = figure1_document().to_string();
    let doc = parse_document(&xml).unwrap();
    let image = saved(doc.clone());
    assert_eq!(image[4..8], 7u32.to_le_bytes());
    assert_eq!(image[8..16], WordHasher::hash(xml.as_bytes()).to_le_bytes());
    let mut v5 = image[..image.len() - 8].to_vec();
    v5[4..8].copy_from_slice(&5u32.to_le_bytes());
    v5[8..16].copy_from_slice(&v5_hash(xml.as_bytes()).to_le_bytes());
    let trailer = v5_hash(&v5);
    v5.extend_from_slice(&trailer.to_le_bytes());
    assert_ne!(v5[8..16], image[8..16], "the lanes moved the digest");
    assert_rejected_within(&v5, "v5");
    let err =
        load_image(&mut v5.as_slice(), Some(v5_hash(xml.as_bytes())), &mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("unsupported index version 5 (expected 7)"), "{err}");
    let err = Workbench::from_persisted_index(doc, &mut v5.as_slice()).unwrap_err();
    assert!(matches!(err, XsactError::Io(_)), "{err}");
}

/// A v6 file — no path table, a tag symbol in each element's `kind` — is
/// the typed version error before anything is decoded: the caller
/// rebuilds from the XML once, with one warning per file.
#[test]
fn v6_files_get_the_typed_version_error() {
    let doc = figure1_document();
    let image = saved(doc.clone());
    let at = offsets(&image);
    let u32_at = |pos: usize| u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap());
    let tags: Vec<u32> =
        (0..u32_at(at.paths) as usize).map(|p| u32_at(at.paths + 8 + 8 * p)).collect();
    let mut v6 = image[..at.paths].to_vec();
    v6[4..8].copy_from_slice(&6u32.to_le_bytes());
    let n = doc.len();
    v6.extend_from_slice(&image[at.nodes..at.nodes + 4 + 4 * n]);
    for i in 0..n {
        let kind = u32_at(at.nodes + 4 + 4 * n + 4 * i);
        let tag = if kind == u32::MAX { kind } else { tags[kind as usize] };
        v6.extend_from_slice(&tag.to_le_bytes());
    }
    v6.extend_from_slice(&image[at.nodes + 4 + 8 * n..image.len() - 8]);
    let v6 = sealed(v6);
    assert_eq!(v6.len(), image.len() - 4 - 8 * tags.len());
    assert_rejected_within(&v6, "v6");
    let err = load_image(&mut v6.as_slice(), None, &mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("unsupported index version 6 (expected 7)"), "{err}");
}

/// A v7 image whose path table or kinds no builder could have written is
/// a typed `InvalidData` naming what is wrong, with the trailer resealed
/// over the damage so the structural checks, not the checksum, refuse it.
#[test]
fn bad_path_tables_are_typed_errors() {
    let doc = figure1_document();
    let image = saved(doc.clone());
    let at = offsets(&image);
    let body = &image[..image.len() - 8];
    let (n, paths) = (doc.len(), doc.paths().len());
    let kind = |node: NodeId| at.nodes + 4 + 4 * n + 4 * node.index();
    let path = |id: usize| at.paths + 4 + 8 * id;
    let with = |edits: &[(usize, u32)]| {
        let mut bytes = body.to_vec();
        for &(pos, value) in edits {
            bytes[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
        }
        sealed(bytes)
    };
    // An element three levels down: its parent is not the root, so its
    // parent node's path is neither path 0's parent (none) nor path 1's
    // (path 0).
    let deep =
        doc.all_nodes().filter(|&node| doc.is_element(node) && doc.depth(node) > 2).last().unwrap();
    let element = doc.all_nodes().find(|&node| node.index() > 0 && doc.is_element(node)).unwrap();
    let u32_at = |pos: usize| u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap());
    for (edits, want) in [
        (vec![(kind(element), paths as u32)], "not in the path table"),
        (vec![(kind(element), u32::MAX - 1)], "not in the path table"),
        (vec![(kind(deep), 0)], "does not extend its parent's"),
        (vec![(kind(deep), 1)], "does not extend its parent's"),
        // Path 2 spelled like path 1.
        (vec![(path(2), u32_at(path(1))), (path(2) + 4, u32_at(path(1) + 4))], "repeats a path"),
        (vec![(kind(doc.root()), 1)], "the root is not on path 0"),
        (vec![(path(1), 1)], "does not precede it"),
        (vec![(path(0), 0)], "does not precede it"),
        (vec![(path(1), u32::MAX)], "does not precede it"),
    ] {
        let bytes = with(&edits);
        let err = load_image(&mut bytes.as_slice(), None, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{want}: {err}");
        assert!(err.to_string().contains(want), "{want}: {err}");
    }
}

/// The checksum law: one flipped bit anywhere past the version — in the
/// digest, the document, the index or the trailer itself — is refused by
/// the trailer compare, before any section is decoded, and reaches the
/// facade as the typed `Io` error naming the mismatch. Without the
/// compare, a flip in the digest loads as a valid file.
#[test]
fn a_flipped_bit_in_any_section_fails_the_checksum() {
    let bytes = saved(figure1_document());
    let at = offsets(&bytes);
    let trailer = bytes.len() - 8;
    for (section, span) in [
        ("header", 8..at.names),
        ("document", at.names..at.index),
        ("index", at.index..trailer),
        ("trailer", trailer..bytes.len()),
    ] {
        for (bit, pos) in
            [span.start, (span.start + span.end) / 2, span.end - 1].into_iter().enumerate()
        {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 1 << (3 * bit);
            match Workbench::from_persisted_index(figure1_document(), &mut damaged.as_slice()) {
                Err(XsactError::Io(err)) => {
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{section}, byte {pos}");
                    let text = err.to_string();
                    assert!(text.contains("checksum mismatch"), "{section}, byte {pos}: {text}");
                }
                Err(other) => panic!("{section}, byte {pos}: not the typed Io error: {other}"),
                Ok(_) => panic!("{section}, byte {pos}: the damaged image loaded"),
            }
        }
    }
}

/// The mixed-case, non-ASCII shape the CLI smoke corpus uses, with
/// attributes on the root and on leaves, and empty values.
const MIXED: &str = "<Product_Line Region=\"Nord-Süd\" x=\"\"><Product easyToRead=\"YES\" \
    Product_Line=\"GPS-630\"><Name>TomTom Go 630 GPS</Name><Größe>12 cm² Maß</Größe>\
    <Note>ÉTÉ Straße İstanbul easy_to_read GPS</Note></Product><Product easyToRead=\"no\">\
    <Name>Garmin eTrex²</Name><Note>Plain ASCII gps unit, rugged.</Note><Empty/>\
    </Product>tail</Product_Line>";

/// Runs every accessor on every node of `doc`, and a search over it: none
/// may panic, whatever the image held.
fn exercise(doc: &Document, index: InvertedIndex) {
    for node in doc.all_nodes() {
        let _ = (doc.tag(node), doc.tag_sym(node), doc.text(node), doc.is_element(node));
        let _ = (doc.parent(node), doc.subtree_end(node), doc.depth(node), doc.dewey(node));
        let _ = (doc.attr_count(node), doc.subtree_attr_count(node), doc.is_leaf_element(node));
        let _: Vec<_> = doc.attrs(node).collect();
        let _: Vec<_> = doc.attrs_syms(node).collect();
        let _ = doc.attr(node, "easyToRead");
        let _: Vec<_> = doc.children(node).chain(doc.child_elements(node)).collect();
        let _ = (doc.child_by_tag(node, "Name"), doc.children_by_tag(node, "Note").count());
        let _ = (doc.descendants(node).count(), doc.text_content(node));
    }
    let _ = (doc.element_count(), doc.substrate_stats(), doc.to_string());
    let engine = SearchEngine::from_parts(doc.clone(), index);
    for query in ["gps", "product name", "straße ascii"] {
        let _ = engine.search(&Query::parse(query));
    }
}

/// Damage that the trailer is re-sealed over, so the structural checks —
/// not the checksum — must catch it: 64 seeds × 64 byte or bit flips
/// anywhere past the version. Every load is a typed error, or a document
/// whose every accessor runs and which saves back to the very bytes it was
/// read from.
#[test]
fn resealed_damage_is_a_typed_error_or_a_whole_document() {
    let image = saved(parse_document(MIXED).unwrap());
    let body = &image[..image.len() - 8];
    let (mut rejected, mut loaded) = (0, 0);
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let mut bytes = body.to_vec();
            let pos = rng.random_range(8..bytes.len());
            if rng.random_bool(0.5) {
                bytes[pos] ^= 1 << rng.random_range(0..8u32);
            } else {
                bytes[pos] = rng.random_range(0..=255u8);
            }
            let bytes = sealed(bytes);
            match load_image(&mut bytes.as_slice(), None, &mut Vec::new()) {
                Err(err) => {
                    assert!(
                        matches!(
                            err.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "seed {seed}, byte {pos}: untyped {err:?}"
                    );
                    rejected += 1;
                }
                Ok((doc, index)) => {
                    let mut again = Vec::new();
                    save_image(&doc, &index, &mut again).unwrap();
                    assert!(again == bytes, "seed {seed}, byte {pos}: not the bytes it read");
                    exercise(&doc, index);
                    loaded += 1;
                }
            }
        }
    }
    // Both arms ran: most damage is caught, some is a different valid file
    // (a digest, a letter of text, a posting id still in order).
    assert!(rejected > 64 && loaded > 64, "{rejected} rejected, {loaded} loaded");
}

/// Nothing but open tags: 140 KB of them used to parse for four seconds
/// into 770 MB, every node carrying a copy of its whole path. Nesting is
/// capped, so the parser stops at the first tag past the cap having
/// allocated for the levels before it — less than the input's length — and
/// a document at the cap costs what its nodes cost.
#[test]
fn nesting_past_the_cap_is_refused_within_the_input_length() {
    let nested = |levels: usize| format!("{}x{}", "<d>".repeat(levels), "</d>".repeat(levels));
    let hostile = nested(20_000);
    let (result, allocated) = allocated_by(|| parse_document(&hostile));
    assert_eq!(result.unwrap_err(), XmlError::TooDeep { offset: 3 * 256, limit: 256 });
    assert!(allocated <= hostile.len(), "{allocated} bytes for {} of input", hostile.len());
    // Through the facade it is the typed `Xml` variant.
    assert!(matches!(
        Workbench::from_xml(&hostile),
        Err(XsactError::Xml(XmlError::TooDeep { .. }))
    ));

    let (at_cap, half) = (nested(256), nested(128));
    let (at_cap, allocated) = allocated_by(|| parse_document(&at_cap));
    assert_eq!(at_cap.unwrap().len(), 257);
    let (half, half_allocated) = allocated_by(|| parse_document(&half));
    assert_eq!(half.unwrap().len(), 129);
    assert!(allocated <= 3 * half_allocated, "{allocated} vs {half_allocated} at half the depth");
}
