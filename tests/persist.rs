//! The `.xidx` I/O contract: one buffer per file in each direction,
//! allocation bounded by the file, and bytes that never change — and the
//! same bound for the other file that arrives from outside, the XML.
//!
//! This binary installs a counting allocator (per-thread byte counts, so
//! the harness's parallel test threads do not disturb one another); the
//! rest of the suite keeps the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};
use xsact::data::fixtures::figure1_document;
use xsact::data::{MovieGenConfig, MoviesGen};
use xsact::index::{document_fingerprint, load_index};
use xsact::xml::{parse_document, Document, XmlError};
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

/// The benchmark's document: 500 movies, seed 42, a ~54 KB index.
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

/// Field-by-field I/O cost one call per `u32`/`u8`/`u64` — about ten
/// thousand for this index. One buffer per file makes the call count
/// independent of how many fields the file holds.
#[test]
fn save_and_load_make_a_constant_number_of_io_calls() {
    let wb = Workbench::from_document(movies_document());
    let mut sink = Counting { inner: Vec::new(), calls: 0 };
    wb.save_index(&mut sink).unwrap();
    assert!(sink.inner.len() > 50_000, "fixture index is ~54 KB, got {}", sink.inner.len());
    assert_eq!(sink.calls, 1, "save is one write_all of the assembled file");

    // A `File` is read in a handful of growing chunks; what matters is
    // that the count follows the byte length, not the field count.
    let mut source = Counting { inner: sink.inner.as_slice(), calls: 0 };
    let restored = Workbench::from_persisted_index(movies_document(), &mut source).unwrap();
    assert!(source.calls <= 32, "{} reads for {} bytes", source.calls, sink.inner.len());
    assert_eq!(
        restored.query("drama family").unwrap().results(),
        wb.query("drama family").unwrap().results()
    );
}

/// `.xidx` v4 bytes as the commit before the one-buffer rewrite wrote
/// them (length, and the trailer — an FNV-1a over every other byte — of
/// two seeded fixtures): the format did not move. The trailers were
/// re-pinned once since, when the document fingerprint in the header began
/// to hash each element's extent; lengths and every other byte stayed.
#[test]
fn saved_bytes_are_what_the_streaming_writer_wrote() {
    for (name, doc, len, trailer) in [
        ("figure1", figure1_document(), 1838, 0x1de2_13bd_5596_3121_u64),
        ("movies", movies_document(), 54447, 0x0d33_f8c3_0995_545e_u64),
    ] {
        let bytes = saved(doc);
        assert_eq!(bytes.len(), len, "{name}: file length");
        let (body, stored) = bytes.split_at(len - 8);
        assert_eq!(u64::from_le_bytes(stored.try_into().unwrap()), trailer, "{name}: trailer");
        // The trailer pins the body only if it really is its hash.
        let fnv = body.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        assert_eq!(fnv, trailer, "{name}: trailer is the FNV-1a of the body");
    }
}

/// What a failed load may cost that does not come from the file: the
/// error value itself (a boxed message), and fingerprinting the document,
/// which depends on the document alone.
fn fixed_cost(doc: &Document) -> usize {
    256 + allocated_by(|| document_fingerprint(doc)).1
}

fn assert_rejected_within(doc: &Document, bytes: &[u8], what: &str) {
    let (result, allocated) = allocated_by(|| load_index(doc, &mut &bytes[..]));
    let err = result.expect_err(what);
    assert!(
        matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
        "{what}: untyped error {err:?}"
    );
    assert!(
        allocated <= bytes.len() + fixed_cost(doc),
        "{what}: allocated {allocated} bytes for a {}-byte file",
        bytes.len()
    );
}

/// A truncated file — any proper prefix — is a typed error reached
/// before anything but the read buffer is allocated.
#[test]
fn every_proper_prefix_is_rejected_without_allocating_past_the_file() {
    let doc = figure1_document();
    let bytes = saved(figure1_document());
    for cut in 0..bytes.len() {
        assert_rejected_within(&doc, &bytes[..cut], &format!("prefix of {cut} bytes"));
    }
    // Through the facade the same failure is the typed `Io` variant.
    let err = Workbench::from_persisted_index(figure1_document(), &mut &bytes[..bytes.len() / 2])
        .unwrap_err();
    assert!(matches!(err, XsactError::Io(_)), "{err}");
}

/// Headers that declare more than the file holds: every count is checked
/// against the bytes that are really there before it sizes an allocation.
#[test]
fn counts_beyond_the_file_length_are_rejected_without_allocating_for_them() {
    let doc = figure1_document();
    let valid = saved(figure1_document());
    let header = |terms: u32, total: u32, frames: u32, words: u32| {
        let mut bytes = b"XIDX".to_vec();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&document_fingerprint(&doc).to_le_bytes());
        for count in [terms, total, frames, words] {
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        bytes
    };
    // The largest values that pass the header's own sanity caps.
    let (max_total, max_words) = (1 << 28, 1 << 25);
    for (what, head) in [
        ("terms", header(u32::MAX, 0, 0, 0)),
        ("frames", header(0, max_total, max_total, 0)),
        ("payload words", header(0, 0, 0, max_words)),
        ("everything", header(u32::MAX, max_total, max_total, max_words)),
    ] {
        assert_rejected_within(&doc, &head, &format!("bare header, huge {what}"));
        // The same header in front of a real body: long enough to start
        // parsing, never long enough for what it declares.
        let mut grafted = head;
        grafted.extend_from_slice(&valid[32..]);
        assert_rejected_within(&doc, &grafted, &format!("grafted header, huge {what}"));
    }
    // A term length that runs past the end of the file.
    let mut long_term = valid.clone();
    long_term[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_rejected_within(&doc, &long_term, "term longer than the file");
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
