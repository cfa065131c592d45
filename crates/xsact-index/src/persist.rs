//! Binary persistence: one `.xidx` image per document — the parsed
//! [`Document`] and its packed index.
//!
//! The demo serves "the large size of the two datasets" (paper §3), so a
//! boot should pay for neither the parse nor the indexing scan twice. The
//! file *is* the in-memory substrate — the document's flat arrays, text
//! arena and name table, then a sorted term dictionary over one shared
//! arena of delta-bit-packed posting frames — keyed by a digest of the XML
//! source bytes, so a warm boot reads the XML only to digest it, compares,
//! and decodes the arrays. It never parses.
//!
//! ```text
//! magic      b"XIDX"          4 bytes
//! version    u32 LE           currently 7
//! source     u64 LE           digest of the XML the document was parsed
//!                             from (Document::source_digest); 0 = none
//! document   the document image (xsact_xml::dom, "The image"): names,
//!            tag paths, end/kind/mark arrays (kind = path id),
//!            attribute records, text arena
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
//!   checksum u64 LE           WordHasher over every preceding byte
//! ```
//!
//! Every other version is **rejected** with the typed "unsupported index
//! version" error, and the caller rebuilds from the XML exactly as for a
//! digest mismatch: versions 1–4 held the index alone, keyed by a
//! structural fingerprint of a document the caller had parsed; version 5
//! had the v6 layout under the serial [`WordHasher`] chain, whose digests
//! and trailers of inputs of 32 bytes or more differ from the lanes';
//! version 6 had no path table, and a tag symbol where `kind` now holds a
//! path id.
//!
//! **The digest.** [`load_image`] with `Some(digest)` accepts a file only
//! if its header holds that digest (and not 0): the facade passes the
//! digest of the XML file's bytes, so an edited source — a changed value,
//! an appended comment — is a typed error before anything is decoded. A
//! document carries a digest only while it is exactly the parse of its
//! source (every builder clears it), so a mutated document's image never
//! loads in place of its XML. With `None` the digest is not checked; the
//! caller compares the decoded document itself.
//!
//! **Validation.** The trailer is checked first: a crash (or `kill -9`)
//! mid-save can truncate or interleave bytes, and a body that does not
//! hash to its trailer is rejected before anything is decoded. Writers
//! pair it with write-to-temp + fsync + atomic rename (the facade's save
//! helpers do), so a reader never observes a half-written file under the
//! final name at all. Then every section is measured against the bytes
//! present before it allocates, and decoded with the checks that make a
//! corrupt file a typed [`io::ErrorKind::InvalidData`] (or
//! [`io::ErrorKind::UnexpectedEof`]), never a panic or a wrong answer:
//!
//! * the document: single root, nested extents, depth, leaf text runs,
//!   distinct names, a path table of distinct `(parent, tag)` pairs in
//!   which every element's path extends its parent node's, monotone marks
//!   on char boundaries,
//!   sorted attribute records tiling their element's window, UTF-8
//!   (see `xsact_xml::dom`);
//! * the dictionary: UTF-8 terms, sorted and unique, whose counts sum to
//!   the declared totals;
//! * every frame: a width in `0..=32` and a payload inside the data arena;
//! * every posting list, streamed frame by frame through no buffer: delta
//!   accumulation checked for overflow, every id a node of the document
//!   and greater than its predecessor, across frame boundaries too,
//!   because everything that reads a list bisects it;
//! * nothing after the index but the trailer.
//!
//! The validated arrays are then adopted as-is, which keeps a save → load
//! → save cycle byte-stable.
//!
//! **Why the hash is not FNV.** Digest and trailer cover every byte of a
//! ~0.4 MB source and a ~0.6 MB image per document on every warm boot.
//! Byte-wise FNV-1a is one multiply per byte; [`WordHasher`] — the
//! interner's probe hash, fed incrementally — is one per eight bytes, on
//! four independent lanes: over eight 500-movie images (4.59 MB, best of
//! 30 passes on a 2-CPU Xeon VM) FNV-1a took 7.47 ms, v5's serial word
//! chain 1.16 ms and the lanes 0.37 ms. Like FNV it detects rather than
//! authenticates: any single-word difference always changes it.
//!
//! **I/O follows the bytes, not the fields.** [`save_image`] streams the
//! file through one 64 KiB buffer and hashes each flush — a cold boot
//! saves an image ten times the v4 index's size while the document and
//! index are live, and one assembled buffer of it per ingest worker raised
//! `cold_start`'s peak RSS 9 %. [`load_image`] drains the reader once
//! (`read_to_end`) into the caller's buffer and decodes from the slice; a
//! boot's ingest worker passes one buffer to every image it loads, so only
//! its first load pays for fresh pages. Either way the number of
//! `read`/`write` calls follows the file's length, not how many fields it
//! holds. Term strings are borrowed from the buffer until the interner
//! copies them.

use crate::postings::{InvertedIndex, ListFault, PackedStore, FRAME};
use std::io::{self, BufWriter, Read, Write};
use xsact_xml::{Document, ImageReader, WordHasher};

const MAGIC: &[u8; 4] = b"XIDX";
const VERSION: u32 = 7;
/// Bytes of one frame-table entry: `first` u32, `bit_off` u32, `width` u8.
const FRAME_ENTRY: usize = 9;

/// Serialises the document and its index to `w`, ending with the
/// [`WordHasher`] trailer over every preceding byte. The bytes pass through
/// one 64 KiB buffer and are hashed as it flushes, so a save holds that
/// much beside the document whatever its size, and the hasher sees a few
/// large chunks rather than every 4-byte field.
pub fn save_image(doc: &Document, index: &InvertedIndex, w: &mut impl Write) -> io::Result<()> {
    let mut out = BufWriter::with_capacity(SAVE_BUFFER, Sealed { w, hasher: WordHasher::new() });
    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&doc.source_digest().unwrap_or(0).to_le_bytes())?;
    doc.write_image(&mut out)?;
    // The in-memory dictionary already iterates in lexicographic term
    // order, so the output is byte-identical across runs. Frame headers
    // are written in the same order; their bit offsets address the shared
    // payload arena, which is written verbatim.
    let store = index.store();
    let entries: Vec<_> = index.dictionary().collect();
    let total: usize = entries.iter().map(|(_, l)| l.len()).sum();
    let frames: usize = entries.iter().map(|(_, l)| l.frame_count()).sum();
    for count in [entries.len(), total, frames, store.data.len()] {
        out.write_all(&(count as u32).to_le_bytes())?;
    }
    for (term, postings) in &entries {
        out.write_all(&(term.len() as u32).to_le_bytes())?;
        out.write_all(term.as_bytes())?;
        out.write_all(&(postings.len() as u32).to_le_bytes())?;
    }
    for (_, postings) in &entries {
        let first = postings.first_frame as usize;
        for g in first..first + postings.frame_count() {
            out.write_all(&store.frame_first[g].to_le_bytes())?;
            out.write_all(&store.frame_bit_off[g].to_le_bytes())?;
            out.write_all(&[store.frame_width[g]])?;
        }
    }
    for &word in &store.data {
        out.write_all(&word.to_le_bytes())?;
    }
    let Sealed { w, hasher } = out.into_inner().map_err(io::IntoInnerError::into_error)?;
    w.write_all(&hasher.finish().to_le_bytes())?;
    w.flush()
}

/// Bytes a save buffers before it writes: the number of `write` calls
/// follows the file's length, not how many fields it holds.
const SAVE_BUFFER: usize = 64 << 10;

/// The writer under [`save_image`]'s buffer: every byte it passes on also
/// reaches the trailer's hasher.
struct Sealed<W: Write> {
    w: W,
    hasher: WordHasher,
}

impl<W: Write> Write for Sealed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.w.write(buf)?;
        self.hasher.write(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Reads `r` to its end into `bytes` — cleared first, its capacity kept —
/// and decodes the document and index from there, verifying magic,
/// version, the source digest (when `source` is `Some`), the trailer, and
/// every section (see the module docs). A caller that loads many images
/// passes one buffer to all of them, so each load after the first reads
/// into memory that is already there.
pub fn load_image(
    r: &mut impl Read,
    source: Option<u64>,
    bytes: &mut Vec<u8>,
) -> io::Result<(Document, InvertedIndex)> {
    bytes.clear();
    r.read_to_end(bytes)?;
    decode_image(bytes, source)
}

fn decode_image(bytes: &[u8], source: Option<u64>) -> io::Result<(Document, InvertedIndex)> {
    let mut r = ImageReader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(bad_data("not an XSACT index file (bad magic)"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(bad_data(format!(
            "unsupported index version {version} (expected {VERSION}) — rebuild the index"
        )));
    }
    let digest = r.u64()?;
    if source.is_some_and(|source| digest == 0 || digest != source) {
        return Err(bad_data(
            "source digest mismatch: the image was not saved from this XML — rebuild the index",
        ));
    }
    // The trailer before anything is decoded: a torn or bit-flipped file
    // fails here, allocating nothing.
    let Some(body_len) = bytes.len().checked_sub(8).filter(|&len| len >= 16) else {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "index file has no trailer"));
    };
    let (body, trailer) = bytes.split_at(body_len);
    if u64::from_le_bytes(trailer.try_into().expect("8 trailer bytes")) != WordHasher::hash(body) {
        return Err(bad_data("index checksum mismatch — rebuild the index"));
    }
    // Measure before allocating: walk both sections' length fields and
    // declared sizes against the bytes present, so a header whose counts
    // exceed the file fails here having allocated nothing, and every
    // capacity below is exact and bounded by the file.
    let mut r = ImageReader::new(&body[16..]);
    let mut skim = r;
    Document::skip_image(&mut skim)?;
    let term_bytes = skip_index(&mut skim)?;
    if !skim.rest().is_empty() {
        return Err(bad_data("bytes between the index and the trailer"));
    }
    let doc = Document::read_image(&mut r, (digest != 0).then_some(digest))?;
    let index = decode_index(&mut r, term_bytes, doc.len())?;
    Ok((doc, index))
}

/// The index body's four counts, within the loader's sanity caps:
/// `(terms, total postings, frames, payload words)`.
fn index_header(r: &mut ImageReader<'_>) -> io::Result<(usize, usize, usize, usize)> {
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
    Ok((term_count, total, frame_count, data_words))
}

/// Moves `r` past an index body, checking that the dictionary's length
/// fields and the fixed-size sections the header declares are present.
/// Returns the dictionary's total term length.
fn skip_index(r: &mut ImageReader<'_>) -> io::Result<usize> {
    let (term_count, _, frame_count, data_words) = index_header(r)?;
    let mut term_bytes = 0;
    for _ in 0..term_count {
        let len = r.u32()? as usize;
        r.take(len)?;
        r.u32()?;
        term_bytes += len;
    }
    // The caps keep this sum far inside u64.
    let fixed = FRAME_ENTRY as u64 * frame_count as u64 + 8 * data_words as u64;
    r.take(usize::try_from(fixed).unwrap_or(usize::MAX))?;
    Ok(term_bytes)
}

/// Decodes the index body [`skip_index`] measured (its total term length
/// is `term_bytes`) for a document of `nodes` nodes.
fn decode_index(
    r: &mut ImageReader<'_>,
    term_bytes: usize,
    nodes: usize,
) -> io::Result<InvertedIndex> {
    let (term_count, total, frame_count, data_words) = index_header(r)?;
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
    // A straight-line loop over whole words, which the compiler vectorises.
    let (words, _) = r.take(8 * data_words)?.as_chunks();
    let data: Vec<u64> = words.iter().map(|&word| u64::from_le_bytes(word)).collect();
    let store = PackedStore { frame_first, frame_bit_off, frame_width, data };
    let index = InvertedIndex::from_packed_parts(&dict, term_bytes, store);
    // Validate every list once, streamed frame by frame with nothing
    // allocated: delta accumulation checked for u32 overflow, every id
    // checked against the document and required to exceed the one before
    // it. After this pass the unchecked frame decoders can never read a
    // value the document does not have, and the bisections of the executor
    // and the scorer run on sorted lists.
    for (term, postings) in index.dictionary() {
        postings.validate(nodes).map_err(|fault| match fault {
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

    const XML: &str = "<shop><product><name>TomTom Go</name><kind>GPS</kind></product>\
                       <product><name>Garmin Nuvi</name><kind>GPS</kind></product></shop>";

    fn doc() -> Document {
        parse_document(XML).unwrap()
    }

    fn saved(d: &Document) -> Vec<u8> {
        let mut buf = Vec::new();
        save_image(d, &InvertedIndex::build(d), &mut buf).unwrap();
        buf
    }

    fn load(buf: &[u8]) -> io::Result<(Document, InvertedIndex)> {
        load_image(&mut &buf[..], None, &mut Vec::new())
    }

    /// Byte offset of the index body: the 16-byte header, then the
    /// document image.
    fn index_pos(buf: &[u8]) -> usize {
        let mut r = ImageReader::new(&buf[16..]);
        Document::read_image(&mut r, None).unwrap();
        buf.len() - r.rest().len()
    }

    /// Byte offset of the frame table: the index body's 16-byte header,
    /// then the dictionary entries.
    fn frame_table_pos(buf: &[u8]) -> usize {
        let body = index_pos(buf);
        let terms = u32::from_le_bytes(buf[body..body + 4].try_into().unwrap()) as usize;
        let mut pos = body + 16;
        for _ in 0..terms {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + len + 4;
        }
        pos
    }

    /// Byte offset of the index body's `data_words` field.
    fn data_words_pos(buf: &[u8]) -> usize {
        index_pos(buf) + 12
    }

    /// Recomputes the checksum trailer after a test mutated the body, so
    /// the mutation reaches the layer under test (decode-validation)
    /// instead of tripping the checksum first.
    fn refresh_trailer(buf: &mut [u8]) {
        let body = buf.len() - 8;
        let checksum = WordHasher::hash(&buf[..body]);
        buf[body..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_document_and_postings() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let (loaded_doc, loaded) = load(&saved(&d)).unwrap();
        assert_eq!(loaded_doc, d);
        assert_eq!(loaded_doc.source_digest(), d.source_digest());
        assert_eq!(loaded.term_count(), index.term_count());
        for term in ["tomtom", "gps", "product", "garmin"] {
            assert_eq!(loaded.postings(term), index.postings(term), "term {term}");
        }
    }

    #[test]
    fn declared_version_is_7() {
        assert_eq!(u32::from_le_bytes(saved(&doc())[4..8].try_into().unwrap()), 7);
    }

    #[test]
    fn serialisation_is_deterministic() {
        let d = doc();
        let (a, b) = (saved(&d), saved(&d));
        assert_eq!(a, b);
        // A save → load → save cycle is also byte-stable.
        let (loaded_doc, loaded) = load(&a).unwrap();
        let mut c = Vec::new();
        save_image(&loaded_doc, &loaded, &mut c).unwrap();
        assert_eq!(a, c);
    }

    /// The header keys the image by the digest of its XML: loading it for
    /// other bytes, or an image of a document with no source at all, is
    /// the typed mismatch, before anything is decoded.
    #[test]
    fn source_digest_mismatch_rejected() {
        let d = doc();
        let buf = saved(&d);
        let digest = WordHasher::hash(XML.as_bytes());
        assert_eq!(d.source_digest(), Some(digest));
        assert!(load_image(&mut buf.as_slice(), Some(digest), &mut Vec::new()).is_ok());
        let edited = WordHasher::hash(format!("{XML}<!-- note -->").as_bytes());
        let err = load_image(&mut buf.as_slice(), Some(edited), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("source digest mismatch"), "{err}");
        // A document built in code records digest 0, which matches nothing.
        let mut built = Document::new("shop");
        built.add_leaf(built.root(), "name", "x");
        let unkeyed = saved(&built);
        assert_eq!(unkeyed[8..16], [0; 8]);
        assert!(load_image(&mut unkeyed.as_slice(), Some(0), &mut Vec::new()).is_err());
        assert_eq!(load(&unkeyed).unwrap().0.source_digest(), None);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let err = load(b"NOPE").unwrap_err();
        assert!(err.to_string().contains("magic") || err.kind() == io::ErrorKind::UnexpectedEof);
        let mut buf = saved(&doc());
        buf[4] = 99; // corrupt the version
        let err = load(&buf).unwrap_err();
        assert!(err.to_string().contains("unsupported index version 99"));
    }

    #[test]
    fn huge_declared_counts_fail_gracefully() {
        // A crafted index header claiming u32::MAX terms must surface a
        // read error, not abort inside a giant preallocation.
        let valid = saved(&doc());
        let body = index_pos(&valid);
        let crafted = |terms: u32, total: u32, frames: u32, words: u32| {
            let mut buf = valid[..body].to_vec();
            for count in [terms, total, frames, words] {
                buf.extend_from_slice(&count.to_le_bytes());
            }
            buf.extend_from_slice(&[0; 8]);
            refresh_trailer(&mut buf);
            load(&buf).unwrap_err()
        };
        assert_eq!(crafted(u32::MAX, 0, 0, 0).kind(), io::ErrorKind::UnexpectedEof);
        let err = crafted(0, u32::MAX, 0, 0);
        assert!(err.to_string().contains("unreasonable postings arena size"), "{err}");
        let err = crafted(0, 1 << 20, 1 << 21, 0);
        assert!(err.to_string().contains("more posting frames than postings"), "{err}");
        let err = crafted(0, 1 << 20, 1 << 19, u32::MAX);
        assert!(err.to_string().contains("unreasonable postings payload size"), "{err}");
    }

    #[test]
    fn truncated_file_rejected() {
        let buf = saved(&doc());
        for cut in [3usize, 10, 20, buf.len() / 2, buf.len() - 1] {
            assert!(load(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    /// Bytes between the index and the trailer are corrupt, not ignored.
    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = saved(&doc());
        let trailer = buf.len() - 8;
        buf.splice(trailer..trailer, [0u8; 4]);
        refresh_trailer(&mut buf);
        let err = load(&buf).unwrap_err();
        assert!(err.to_string().contains("bytes between the index and the trailer"), "{err}");
    }

    /// A frame whose declared payload extends past the data arena must be
    /// rejected with the typed bounds error before anything decodes.
    #[test]
    fn truncated_frame_payload_rejected() {
        let mut buf = saved(&doc());
        // Dropping the payload (and declaring zero words) orphans every
        // payload-carrying frame.
        let words = data_words_pos(&buf);
        let data_words = u32::from_le_bytes(buf[words..words + 4].try_into().unwrap()) as usize;
        buf[words..words + 4].copy_from_slice(&0u32.to_le_bytes());
        let data_end = buf.len() - 8;
        buf.drain(data_end - 8 * data_words..data_end);
        refresh_trailer(&mut buf);
        let err = load(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame payload leaves the data arena"), "{err}");
    }

    /// A frame with an impossible bit width (not `0..=32`) must fail with
    /// the typed width error, not a panic or a garbage decode.
    #[test]
    fn corrupt_frame_bit_width_rejected() {
        let mut buf = saved(&doc());
        let width_pos = frame_table_pos(&buf) + 8; // first frame's width byte
        buf[width_pos] = 40;
        refresh_trailer(&mut buf);
        let err = load(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt frame bit width 40"), "{err}");

        // `0xFF` once marked a frame of absolute 32-bit ids. Hand-build a
        // well-formed one — "a" → [1, 2] with the 2 as one payload word —
        // and it is a corrupt width like any other: no writer emits it.
        let d = parse_document("<r><a/><a/></r>").unwrap();
        let mut buf = saved(&d);
        let words = data_words_pos(&buf);
        assert_eq!(buf[words..words + 4], 0u32.to_le_bytes(), "two consecutive runs: no payload");
        buf[words..words + 4].copy_from_slice(&1u32.to_le_bytes());
        let width_pos = frame_table_pos(&buf) + 8; // "a" sorts first
        assert_eq!(buf[width_pos], 0);
        buf[width_pos] = 0xFF;
        let trailer = buf.len() - 8;
        buf.splice(trailer..trailer, 2u64.to_le_bytes());
        refresh_trailer(&mut buf);
        let err = load(&buf).unwrap_err();
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
        let saved = saved(&d);
        // "a" sorts first and spans two frames; restart its second one at
        // node 2, inside the first frame's range.
        let second_first = frame_table_pos(&saved) + FRAME_ENTRY;
        let mut buf = saved.clone();
        assert!(u32::from_le_bytes(buf[second_first..second_first + 4].try_into().unwrap()) > 2);
        buf[second_first..second_first + 4].copy_from_slice(&2u32.to_le_bytes());
        refresh_trailer(&mut buf);
        let err = load(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("\"a\" are not in document order"), "{err}");
        // The untouched file loads, answers in full and saves to the same
        // bytes.
        let (loaded_doc, loaded) = load(&saved).unwrap();
        let mut resaved = Vec::new();
        save_image(&loaded_doc, &loaded, &mut resaved).unwrap();
        assert_eq!(resaved, saved);
        let plan = crate::plan::QueryPlan::new(&loaded, &Query::parse("a k"));
        assert_eq!(plan.stream(&loaded_doc).count(), 200);
    }

    /// Deltas that accumulate past `u32::MAX` (or ids past the document)
    /// are caught by the decode-validation pass with typed errors.
    #[test]
    fn corrupt_frame_payload_rejected() {
        let saved = saved(&doc());
        let words = data_words_pos(&saved);
        let data_words = u32::from_le_bytes(saved[words..words + 4].try_into().unwrap()) as usize;
        assert!(data_words > 0, "fixture must carry packed payload");
        // The payload sits between the frame table and the 8-byte trailer.
        let data_end = saved.len() - 8;
        let data_start = data_end - 8 * data_words;

        // Max out every delta (widths untouched): the small widths decode,
        // but some id lands past the document's node arena. The trailer is
        // refreshed so the mutation reaches decode-validation.
        let mut buf = saved.clone();
        buf[data_start..data_end].fill(0xFF);
        refresh_trailer(&mut buf);
        let err = load(&buf).unwrap_err();
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
        buf[data_start..data_end].fill(0xFF);
        refresh_trailer(&mut buf);
        let err = load(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt posting delta"), "{err}");
    }

    /// A single flipped bit — the torn-write shape the trailer exists for
    /// — is caught by the checksum before decode-validation ever runs,
    /// wherever it lands.
    #[test]
    fn flipped_bit_fails_the_checksum() {
        let saved = saved(&doc());
        for pos in [16, index_pos(&saved), saved.len() - 9, saved.len() - 1] {
            let mut buf = saved.clone();
            buf[pos] ^= 0x01;
            let err = load(&buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("checksum mismatch"), "byte {pos}: {err}");
        }
    }

    #[test]
    fn loaded_index_searches_identically() {
        let d = doc();
        let index = InvertedIndex::build(&d);
        let (loaded_doc, loaded) = load(&saved(&d)).unwrap();
        let a = SearchEngine::from_parts(d, index);
        let b = SearchEngine::from_parts(loaded_doc, loaded);
        let q = Query::parse("tomtom gps");
        assert_eq!(a.search(&q), b.search(&q));
    }
}
