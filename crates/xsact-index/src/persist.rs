//! Binary persistence for the inverted index.
//!
//! Building the index is a full document scan; for the demo's "large size
//! of the two datasets" (paper §3) it pays to build once and reload. The
//! format is a small, versioned, length-prefixed binary layout that mirrors
//! the in-memory substrate — a sorted term dictionary over one shared
//! arena of delta-bit-packed posting frames:
//!
//! ```text
//! magic      b"XIDX"          4 bytes
//! version    u32 LE           currently 4
//! fprint     u64 LE           structural fingerprint of the document
//! terms      u32 LE           number of dictionary entries
//! total      u32 LE           total postings across all terms
//! frames     u32 LE           number of posting frames
//! data_words u32 LE           u64 words of packed payload
//! dictionary, terms in lexicographic order:
//!   term_len u32 LE, term bytes (UTF-8)
//!   post_len u32 LE           posting count (frame spans are derived:
//!                             frames are contiguous per term, in
//!                             dictionary order, all full but the last)
//! frame table, dictionary order, 9 bytes per frame:
//!   first    u32 LE           first node id of the frame
//!   bit_off  u32 LE           payload bit offset into the data arena
//!   width    u8               0..=32, the delta bit width (0 = a
//!                             consecutive run, no payload)
//! data:
//!   data_words × u64 LE       payload bits, back to back
//! trailer:
//!   checksum u64 LE           FNV-1a over every preceding byte
//! ```
//!
//! Versions 1 (pre-interning, postings inline per term), 2 (flat `u32`
//! postings arena), and 3 (packed frames, but no checksum trailer) are
//! **rejected** with an "unsupported index version" error — the caller
//! rebuilds the index, exactly as for a fingerprint mismatch.
//!
//! The trailer makes torn writes detectable: a crash (or `kill -9`)
//! mid-save can truncate or interleave bytes, and a file whose body does
//! not hash to its trailer is rejected before the decode-validation pass
//! runs. Writers should pair it with write-to-temp + fsync + atomic
//! rename (the facade's corpus save helpers do), so a reader never
//! observes a half-written file under the final name at all.
//!
//! Posting entries are arena indices, which are only meaningful for the
//! exact document the index was built from — the **fingerprint** (FNV-1a
//! over the document structure) is verified on load and mismatches are
//! rejected, so a stale index can never silently corrupt search results.
//! Every frame is bounds-checked against the payload arena and streamed
//! once during load — through no buffer: a frame's ids increase by
//! construction, so the sum of its deltas gives its last id, and the first
//! and last id of each frame decide the rest (delta accumulation checked
//! for overflow, every id checked against the document and against its
//! predecessor — a list must increase strictly, across frame boundaries
//! too, because everything that reads it bisects), so a corrupt file fails
//! with a typed [`io::ErrorKind::InvalidData`] error, never a panic or a
//! wrong answer — and the validated arrays are then adopted as-is, which
//! keeps a save → load → save cycle byte-stable. No writer has a use for
//! another width byte than `0..=32` (format version 4 once reserved `0xFF`
//! for absolute ids of documents whose id order was not document order;
//! such documents cannot be built any more), so any other value is corrupt.
//!
//! **I/O is one buffer per file in each direction.** [`save_index`]
//! assembles the whole file in a `Vec`, hashes it, and hands it to the
//! writer in a single `write_all`; [`load_index`] drains the reader once
//! (`read_to_end`) and parses from the slice, hashing `body` in one pass —
//! there are no streaming hash adaptors, and the number of `read`/`write`
//! calls does not depend on how many fields the file holds (an unbuffered
//! `File` used to pay one syscall per `u32`). The loader **measures before
//! it allocates**: it walks the dictionary's length fields and the
//! declared section sizes against the bytes actually present, so a
//! truncated file — or a header whose counts exceed the file — fails with
//! a typed [`io::ErrorKind::UnexpectedEof`] having allocated nothing, and
//! every capacity after that point is exact and bounded by the file's
//! size. Term strings are borrowed from the buffer until the interner
//! copies them.

use crate::postings::{InvertedIndex, ListFault, PackedStore, FRAME};
use std::io::{self, Read, Write};
use xsact_xml::{Document, FnvHasher};

const MAGIC: &[u8; 4] = b"XIDX";
const VERSION: u32 = 4;
/// Bytes of one frame-table entry: `first` u32, `bit_off` u32, `width` u8.
const FRAME_ENTRY: usize = 9;

/// FNV-style structural fingerprint of a document: node count, then in
/// document order each element's tag, extent (`subtree_end − id`, LEB128:
/// what tells `<a><b/><c/></a>` from `<a><b><c/></b></a>`) and attributes
/// and each text node's content (the workspace-shared [`FnvHasher`], so
/// the constants cannot drift from the interner's).
pub fn document_fingerprint(doc: &Document) -> u64 {
    let mut hasher = FnvHasher::new();
    let mut eat = |bytes: &[u8]| hasher.write(bytes);
    eat(&(doc.len() as u64).to_le_bytes());
    for node in doc.all_nodes() {
        if doc.is_element(node) {
            eat(b"<");
            eat(doc.tag(node).as_bytes());
            let mut extent = doc.subtree_end(node) - node.index() as u32;
            while extent >= 0x80 {
                eat(&[extent as u8 | 0x80]);
                extent >>= 7;
            }
            eat(&[extent as u8]);
            for (k, v) in doc.attrs(node) {
                eat(b"@");
                eat(k.as_bytes());
                eat(b"=");
                eat(v.as_bytes());
            }
        } else if let Some(t) = doc.text(node) {
            eat(b"#");
            eat(t.as_bytes());
        }
    }
    hasher.finish()
}

fn checksum(body: &[u8]) -> u64 {
    let mut hasher = FnvHasher::new();
    hasher.write(body);
    hasher.finish()
}

/// Serialises the index (with the document's fingerprint) to `w`,
/// ending with the FNV-1a checksum trailer over every preceding byte.
/// The file is assembled in memory and handed to `w` in one `write_all`.
pub fn save_index(doc: &Document, index: &InvertedIndex, w: &mut impl Write) -> io::Result<()> {
    // The in-memory dictionary already iterates in lexicographic term
    // order, so the output is byte-identical across runs. Frame headers
    // are written in the same order; their bit offsets address the shared
    // payload arena, which is written verbatim.
    let store = index.store();
    let entries: Vec<_> = index.dictionary().collect();
    let total: usize = entries.iter().map(|(_, l)| l.len()).sum();
    let frames: usize = entries.iter().map(|(_, l)| l.frame_count()).sum();
    let term_bytes: usize = entries.iter().map(|(t, _)| t.len()).sum();
    let mut out = Vec::with_capacity(
        32 + 8 * entries.len() + term_bytes + FRAME_ENTRY * frames + 8 * store.data.len() + 8,
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&document_fingerprint(doc).to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    out.extend_from_slice(&(total as u32).to_le_bytes());
    out.extend_from_slice(&(frames as u32).to_le_bytes());
    out.extend_from_slice(&(store.data.len() as u32).to_le_bytes());
    for (term, postings) in &entries {
        out.extend_from_slice(&(term.len() as u32).to_le_bytes());
        out.extend_from_slice(term.as_bytes());
        out.extend_from_slice(&(postings.len() as u32).to_le_bytes());
    }
    for (_, postings) in &entries {
        for f in 0..postings.frame_count() {
            let g = postings.first_frame as usize + f;
            out.extend_from_slice(&store.frame_first[g].to_le_bytes());
            out.extend_from_slice(&store.frame_bit_off[g].to_le_bytes());
            out.push(store.frame_width[g]);
        }
    }
    for &word in &store.data {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let trailer = checksum(&out);
    out.extend_from_slice(&trailer.to_le_bytes());
    w.write_all(&out)
}

/// Deserialises an index for `doc`, verifying magic, version, the document
/// fingerprint, the checksum trailer, and every frame of the payload.
/// Reads `r` to its end once and parses from that buffer.
pub fn load_index(doc: &Document, r: &mut impl Read) -> io::Result<InvertedIndex> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode_index(doc, &bytes)
}

/// Bounds-checked reader over the file's bytes: running past the end is
/// the typed [`io::ErrorKind::UnexpectedEof`] a short `read_exact` gives.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "index file is shorter than its header declares",
            ));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}

fn decode_index(doc: &Document, bytes: &[u8]) -> io::Result<InvertedIndex> {
    let mut r = Cursor { rest: bytes };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(bad_data("not an XSACT index file (bad magic)"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(bad_data(format!(
            "unsupported index version {version} (expected {VERSION}) — rebuild the index"
        )));
    }
    let fingerprint = r.u64()?;
    let expected = document_fingerprint(doc);
    if fingerprint != expected {
        return Err(bad_data("index fingerprint does not match the document — rebuild the index"));
    }
    let term_count = r.u32()? as usize;
    let total = r.u32()? as usize;
    if total > (1 << 28) {
        return Err(bad_data("unreasonable postings arena size"));
    }
    let frame_count = r.u32()? as usize;
    if frame_count > total {
        return Err(bad_data("more posting frames than postings"));
    }
    let data_words = r.u32()? as usize;
    if data_words > (1 << 25) {
        return Err(bad_data("unreasonable postings payload size"));
    }
    // Measure before allocating: walk the dictionary's length fields, then
    // the fixed-size sections the header declares. A truncated file, or a
    // header whose counts exceed the file, fails here having allocated
    // nothing, so every capacity below is exact and bounded by the file.
    let mut skim = r;
    for _ in 0..term_count {
        let len = skim.u32()? as usize;
        skim.take(len)?;
        skim.u32()?;
    }
    // The caps above keep this sum far inside u64.
    let fixed = FRAME_ENTRY as u64 * frame_count as u64 + 8 * data_words as u64 + 8;
    skim.take(usize::try_from(fixed).unwrap_or(usize::MAX))?;
    // Dictionary: term strings (borrowed from the buffer) plus their
    // posting counts. Frame spans are derived, so the dictionary must
    // account for exactly the declared totals.
    let mut dict: Vec<(&str, u32)> = Vec::with_capacity(term_count);
    let mut sum_postings = 0usize;
    let mut sum_frames = 0usize;
    for _ in 0..term_count {
        let len = r.u32()? as usize;
        let term =
            std::str::from_utf8(r.take(len)?).map_err(|_| bad_data("term is not valid UTF-8"))?;
        if let Some(&(prev, _)) = dict.last() {
            if prev >= term {
                return Err(bad_data("dictionary terms are not sorted and unique"));
            }
        }
        let n = r.u32()?;
        sum_postings += n as usize;
        sum_frames += (n as usize).div_ceil(FRAME);
        dict.push((term, n));
    }
    if sum_postings != total {
        return Err(bad_data("dictionary postings do not sum to the declared total"));
    }
    if sum_frames != frame_count {
        return Err(bad_data("frame table does not match the dictionary"));
    }
    // Frame table: validate each width and each payload span against the
    // payload arena (entry counts are derived from the dictionary).
    let mut frame_first = Vec::with_capacity(frame_count);
    let mut frame_bit_off = Vec::with_capacity(frame_count);
    let mut frame_width = Vec::with_capacity(frame_count);
    let data_bits = data_words as u64 * 64;
    for &(_, n) in &dict {
        let n = n as usize;
        let frames = n.div_ceil(FRAME);
        for f in 0..frames {
            let count = if (f + 1) * FRAME <= n { FRAME } else { n - f * FRAME };
            let first = r.u32()?;
            let bit_off = r.u32()?;
            let [width] = r.array()?;
            if width > 32 {
                return Err(bad_data(format!("corrupt frame bit width {width}")));
            }
            let payload_bits = (count as u64 - 1) * u64::from(width);
            if u64::from(bit_off) + payload_bits > data_bits {
                return Err(bad_data("frame payload leaves the data arena"));
            }
            frame_first.push(first);
            frame_bit_off.push(bit_off);
            frame_width.push(width);
        }
    }
    let data: Vec<u64> = r
        .take(8 * data_words)?
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")))
        .collect();
    // Body fully consumed — verify the trailer before the (more
    // expensive) decode-validation pass. A torn or bit-flipped file fails
    // here with a typed error; the trailer sits past the hashed span.
    let body = &bytes[..bytes.len() - r.rest.len()];
    let stored = r.u64()?;
    if stored != checksum(body) {
        return Err(bad_data("index checksum mismatch — rebuild the index"));
    }
    let store = PackedStore { frame_first, frame_bit_off, frame_width, data };
    let index = InvertedIndex::from_packed_parts(&dict, store);
    // Validate every list once, streamed frame by frame with nothing
    // allocated: delta accumulation checked for u32 overflow, every id
    // checked against the document and required to exceed the one before
    // it. After this pass the unchecked frame decoders can never read a
    // value the document does not have, and the bisections of the executor
    // and the scorer run on sorted lists.
    for (term, postings) in index.dictionary() {
        postings.validate(doc.len()).map_err(|fault| match fault {
            ListFault::DeltaOverflow => {
                bad_data(format!("corrupt posting delta for term {term:?}"))
            }
            ListFault::OutOfRange => bad_data("posting entry out of range"),
            ListFault::OutOfOrder => {
                bad_data(format!("postings of term {term:?} are not in document order"))
            }
        })?;
    }
    Ok(index)
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::query::Query;
    use xsact_xml::parse_document;

    fn doc() -> Document {
        parse_document(
            "<shop><product><name>TomTom Go</name><kind>GPS</kind></product>\
             <product><name>Garmin Nuvi</name><kind>GPS</kind></product></shop>",
        )
        .unwrap()
    }

    /// Byte offset of the frame table: fixed 32-byte header, then the
    /// dictionary entries.
    fn frame_table_pos(buf: &[u8]) -> usize {
        let terms = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
        let mut pos = 32;
        for _ in 0..terms {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + len + 4;
        }
        pos
    }

    /// Recomputes the checksum trailer after a test mutated the body, so
    /// the mutation reaches the layer under test (decode-validation)
    /// instead of tripping the checksum first.
    fn refresh_trailer(buf: &mut [u8]) {
        let body = buf.len() - 8;
        let mut hasher = FnvHasher::new();
        hasher.write(&buf[..body]);
        let checksum = hasher.finish();
        buf[body..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_postings() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        let loaded = load_index(&d, &mut buf.as_slice()).unwrap();
        assert_eq!(loaded.term_count(), index.term_count());
        for term in ["tomtom", "gps", "product", "garmin"] {
            assert_eq!(loaded.postings(term), index.postings(term), "term {term}");
        }
    }

    #[test]
    fn declared_version_is_4() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 4);
    }

    #[test]
    fn serialisation_is_deterministic() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut a = Vec::new();
        let mut b = Vec::new();
        save_index(&d, &index, &mut a).unwrap();
        save_index(&d, &index, &mut b).unwrap();
        assert_eq!(a, b);
        // A save → load → save cycle is also byte-stable.
        let loaded = load_index(&d, &mut a.as_slice()).unwrap();
        let mut c = Vec::new();
        save_index(&d, &loaded, &mut c).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        let other =
            parse_document("<shop><product><name>Different</name></product></shop>").unwrap();
        let err = load_index(&other, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let d = doc();
        let err = load_index(&d, &mut &b"NOPE"[..]).unwrap_err();
        assert!(err.to_string().contains("magic") || err.kind() == io::ErrorKind::UnexpectedEof);

        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        buf[4] = 99; // corrupt the version
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unsupported index version 99"));
    }

    /// A v1 `.xidx` file (the pre-interning layout) must be rejected with
    /// the typed "unsupported index version" error — not parsed as garbage
    /// and not a panic.
    #[test]
    fn v1_files_rejected_with_version_error() {
        let d = doc();
        // Hand-assemble a well-formed v1 header + body: magic, version 1,
        // matching fingerprint, one term with one posting (v1 stored
        // postings inline per term).
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&document_fingerprint(&d).to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes()); // term count
        v1.extend_from_slice(&3u32.to_le_bytes()); // term length
        v1.extend_from_slice(b"gps");
        v1.extend_from_slice(&1u32.to_le_bytes()); // postings length
        v1.extend_from_slice(&0u32.to_le_bytes()); // node index
        let err = load_index(&d, &mut v1.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported index version 1"), "unexpected error: {err}");
    }

    /// A v2 `.xidx` file (the flat-arena layout) must likewise be rejected
    /// with the typed version error, whatever follows its header.
    #[test]
    fn v2_files_rejected_with_version_error() {
        let d = doc();
        // Hand-assemble a well-formed v2 header + body: magic, version 2,
        // matching fingerprint, one term with a (offset, len) span into a
        // one-entry flat postings arena.
        let mut v2 = Vec::new();
        v2.extend_from_slice(MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&document_fingerprint(&d).to_le_bytes());
        v2.extend_from_slice(&1u32.to_le_bytes()); // term count
        v2.extend_from_slice(&1u32.to_le_bytes()); // arena total
        v2.extend_from_slice(&3u32.to_le_bytes()); // term length
        v2.extend_from_slice(b"gps");
        v2.extend_from_slice(&0u32.to_le_bytes()); // post_off
        v2.extend_from_slice(&1u32.to_le_bytes()); // post_len
        v2.extend_from_slice(&0u32.to_le_bytes()); // arena entry
        let err = load_index(&d, &mut v2.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported index version 2"), "unexpected error: {err}");
    }

    /// A v3 `.xidx` file — the current layout minus the checksum trailer
    /// — must be rejected by the version gate (a v3 body would otherwise
    /// misparse its final data word as a trailer).
    #[test]
    fn v3_files_rejected_with_version_error() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        buf.truncate(buf.len() - 8); // exactly the v3 byte stream
        buf[4..8].copy_from_slice(&3u32.to_le_bytes());
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported index version 3"), "unexpected error: {err}");
    }

    #[test]
    fn huge_declared_counts_fail_gracefully() {
        // A crafted header claiming u32::MAX terms must surface a read
        // error, not abort inside a giant preallocation.
        let d = doc();
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&document_fingerprint(&d).to_le_bytes());
        let crafted = |terms: u32, total: u32, frames: u32, words: u32| {
            let mut buf = head.clone();
            buf.extend_from_slice(&terms.to_le_bytes());
            buf.extend_from_slice(&total.to_le_bytes());
            buf.extend_from_slice(&frames.to_le_bytes());
            buf.extend_from_slice(&words.to_le_bytes());
            load_index(&d, &mut buf.as_slice()).unwrap_err()
        };
        assert!(
            crafted(u32::MAX, 0, 0, 0).to_string().contains("more posting frames")
                || crafted(u32::MAX, 0, 0, 0).kind() == io::ErrorKind::UnexpectedEof
        );
        let err = crafted(0, u32::MAX, 0, 0);
        assert!(err.to_string().contains("unreasonable postings arena size"), "{err}");
        let err = crafted(0, 1 << 20, 1 << 21, 0);
        assert!(err.to_string().contains("more posting frames than postings"), "{err}");
        let err = crafted(0, 1 << 20, 1 << 19, u32::MAX);
        assert!(err.to_string().contains("unreasonable postings payload size"), "{err}");
    }

    #[test]
    fn truncated_file_rejected() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        for cut in [3usize, 10, buf.len() / 2, buf.len() - 1] {
            assert!(load_index(&d, &mut &buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    /// A frame whose declared payload extends past the data arena must be
    /// rejected with the typed bounds error before anything decodes.
    #[test]
    fn truncated_frame_payload_rejected() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        // Shrinking the declared payload to zero words orphans every
        // payload-carrying frame.
        buf[28..32].copy_from_slice(&0u32.to_le_bytes());
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame payload leaves the data arena"), "{err}");
    }

    /// A frame with an impossible bit width (not `0..=32`) must fail with
    /// the typed width error, not a panic or a garbage decode.
    #[test]
    fn corrupt_frame_bit_width_rejected() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        let width_pos = frame_table_pos(&buf) + 8; // first frame's width byte
        buf[width_pos] = 40;
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt frame bit width 40"), "{err}");

        // `0xFF` once marked a frame of absolute 32-bit ids. Hand-build a
        // well-formed one — "a" → [1, 2] with the 2 as one payload word —
        // and it is a corrupt width like any other: no writer emits it.
        let d = parse_document("<r><a/><a/></r>").unwrap();
        let mut buf = Vec::new();
        save_index(&d, &InvertedIndex::build(&d), &mut buf).unwrap();
        assert_eq!(buf[28..32], 0u32.to_le_bytes(), "two consecutive runs carry no payload");
        buf[28..32].copy_from_slice(&1u32.to_le_bytes());
        let width_pos = frame_table_pos(&buf) + 8; // "a" sorts first
        assert_eq!(buf[width_pos], 0);
        buf[width_pos] = 0xFF;
        let trailer = buf.len() - 8;
        buf.splice(trailer..trailer, 2u64.to_le_bytes());
        refresh_trailer(&mut buf);
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt frame bit width 255"), "{err}");
    }

    /// Every id of a list may be a node of the document and the list still
    /// be wrong: frames decode independently, so a second frame that starts
    /// below the first one's end yields an unsorted list, and everything
    /// that bisects it answers wrongly without an error. The loader
    /// requires each id to exceed the one before it.
    #[test]
    fn postings_out_of_document_order_rejected() {
        let d = parse_document(&format!("<r>{}</r>", "<a>k</a>".repeat(200))).unwrap();
        let index = InvertedIndex::build(&d);
        assert_eq!(index.postings("a").len(), 200);
        let mut saved = Vec::new();
        save_index(&d, &index, &mut saved).unwrap();
        // "a" sorts first and spans two frames; restart its second one at
        // node 2, inside the first frame's range.
        let second_first = frame_table_pos(&saved) + FRAME_ENTRY;
        let mut buf = saved.clone();
        assert!(u32::from_le_bytes(buf[second_first..second_first + 4].try_into().unwrap()) > 2);
        buf[second_first..second_first + 4].copy_from_slice(&2u32.to_le_bytes());
        refresh_trailer(&mut buf);
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("\"a\" are not in document order"), "{err}");
        // The untouched file loads, answers in full and saves to the same
        // bytes.
        let loaded = load_index(&d, &mut saved.as_slice()).unwrap();
        let mut resaved = Vec::new();
        save_index(&d, &loaded, &mut resaved).unwrap();
        assert_eq!(resaved, saved);
        let plan = crate::plan::QueryPlan::new(&loaded, &Query::parse("a k"));
        assert_eq!(plan.stream(&d).count(), 200);
    }

    /// Deltas that accumulate past `u32::MAX` (or ids past the document)
    /// are caught by the decode-validation pass with typed errors.
    #[test]
    fn corrupt_frame_payload_rejected() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut saved = Vec::new();
        save_index(&d, &index, &mut saved).unwrap();
        let data_words = u32::from_le_bytes(saved[28..32].try_into().unwrap()) as usize;
        assert!(data_words > 0, "fixture must carry packed payload");
        // The payload sits between the frame table and the 8-byte trailer.
        let data_end = saved.len() - 8;
        let data_start = data_end - 8 * data_words;

        // Max out every delta (widths untouched): the small widths decode,
        // but some id lands past the document's node arena. The trailer is
        // refreshed so the mutation reaches decode-validation.
        let mut buf = saved.clone();
        for b in &mut buf[data_start..data_end] {
            *b = 0xFF;
        }
        refresh_trailer(&mut buf);
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("posting entry out of range"), "{err}");

        // Additionally widen "gps"'s delta frame (third dictionary entry,
        // after the payload-free width-0 frames of "garmin" and "go") to
        // 32 bits: the all-ones delta then overflows the u32 id space.
        let mut buf = saved.clone();
        let ft = frame_table_pos(&buf);
        let gps_width = &mut buf[ft + 2 * 9 + 8];
        assert!(*gps_width >= 1 && *gps_width <= 32, "gps frame must be a delta frame");
        *gps_width = 32;
        for b in &mut buf[data_start..data_end] {
            *b = 0xFF;
        }
        refresh_trailer(&mut buf);
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt posting delta"), "{err}");
    }

    /// A single flipped payload bit — the torn-write shape the trailer
    /// exists for — is caught by the checksum before decode-validation
    /// ever runs.
    #[test]
    fn flipped_bit_fails_the_checksum() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        let data_start = buf.len() - 8 - 8;
        buf[data_start] ^= 0x01;
        let err = load_index(&d, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // A corrupt trailer (body intact) fails the same way.
        let mut buf2 = Vec::new();
        save_index(&d, &index, &mut buf2).unwrap();
        let last = buf2.len() - 1;
        buf2[last] ^= 0x80;
        let err = load_index(&d, &mut buf2.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn loaded_index_searches_identically() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let mut buf = Vec::new();
        save_index(&d, &index, &mut buf).unwrap();
        let loaded = load_index(&d, &mut buf.as_slice()).unwrap();
        let a = SearchEngine::from_parts(d.clone(), index);
        let b = SearchEngine::from_parts(d, loaded);
        let q = Query::parse("tomtom gps");
        assert_eq!(a.search(&q), b.search(&q));
    }

    #[test]
    fn fingerprint_sensitive_to_structure() {
        let a = document_fingerprint(&doc());
        let b = document_fingerprint(
            &parse_document(
                "<shop><product><name>TomTom Go</name><kind>gps</kind></product>\
                 <product><name>Garmin Nuvi</name><kind>GPS</kind></product></shop>",
            )
            .unwrap(),
        );
        assert_ne!(a, b);
        // Same content → same fingerprint.
        assert_eq!(a, document_fingerprint(&doc()));
        // Same tags in the same preorder, different nesting.
        let siblings = parse_document("<a><b/><c/></a>").unwrap();
        let nested = parse_document("<a><b><c/></b></a>").unwrap();
        assert_ne!(document_fingerprint(&siblings), document_fingerprint(&nested));
    }
}
