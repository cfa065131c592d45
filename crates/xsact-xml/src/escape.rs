//! Entity escaping and unescaping for XML text and attribute values.
//!
//! Supports the five predefined XML entities (`&amp;`, `&lt;`, `&gt;`,
//! `&apos;`, `&quot;`) plus decimal (`&#65;`) and hexadecimal (`&#x41;`)
//! character references.

use crate::error::{XmlError, XmlResult};
use std::borrow::Cow;

/// Escapes text content: `&`, `<` and `>` are replaced by entities.
///
/// Returns a borrowed string when no escaping is necessary, avoiding an
/// allocation on the common path.
///
/// ```
/// use xsact_xml::escape::escape_text;
/// assert_eq!(escape_text("a < b & c"), "a &lt; b &amp; c");
/// assert_eq!(escape_text("plain"), "plain");
/// ```
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, |c| matches!(c, '&' | '<' | '>'))
}

/// Escapes an attribute value for inclusion in double quotes: in addition to
/// the text escapes, `"` becomes `&quot;`.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_with(s, |c| matches!(c, '&' | '<' | '>' | '"'))
}

fn escape_with(s: &str, needs: impl Fn(char) -> bool) -> Cow<'_, str> {
    let first = match s.char_indices().find(|&(_, c)| needs(c)) {
        Some((i, _)) => i,
        None => return Cow::Borrowed(s),
    };
    let mut out = String::with_capacity(s.len() + 8);
    out.push_str(&s[..first]);
    for c in s[first..].chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if needs('"') => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

/// Resolves a single entity body (the text between `&` and `;`).
///
/// `offset` is the byte position of the `&` in the original input; it is only
/// used to build the error value.
fn resolve_entity(entity: &str, offset: usize) -> XmlResult<char> {
    match entity {
        "amp" => return Ok('&'),
        "lt" => return Ok('<'),
        "gt" => return Ok('>'),
        "apos" => return Ok('\''),
        "quot" => return Ok('"'),
        _ => {}
    }
    let bad = || XmlError::BadEntity { offset, entity: entity.to_owned() };
    let code = if let Some(hex) = entity.strip_prefix("#x").or_else(|| entity.strip_prefix("#X")) {
        u32::from_str_radix(hex, 16).map_err(|_| bad())?
    } else if let Some(dec) = entity.strip_prefix('#') {
        dec.parse::<u32>().map_err(|_| bad())?
    } else {
        return Err(bad());
    };
    char::from_u32(code).ok_or_else(bad)
}

/// Unescapes text containing entity references.
///
/// Returns a borrowed string when the input contains no `&`.
///
/// ```
/// use xsact_xml::escape::unescape;
/// assert_eq!(unescape("a &lt; b", 0).unwrap(), "a < b");
/// assert_eq!(unescape("&#x2603;", 0).unwrap(), "\u{2603}");
/// ```
pub fn unescape(s: &str, base_offset: usize) -> XmlResult<Cow<'_, str>> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    unescape_into(s, base_offset, &mut out)?;
    Ok(Cow::Owned(out))
}

/// Appends `s` to `out` with its entity references resolved — what the
/// parser does with a text run or attribute value that holds an `&`, so the
/// resolved text lands in the document's arena without a `String` of its
/// own. On an error `out` keeps what was appended before the bad entity.
pub(crate) fn unescape_into(s: &str, base_offset: usize, out: &mut String) -> XmlResult<()> {
    let mut rest = s;
    let mut pos = base_offset;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        pos += amp;
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or_else(|| XmlError::BadEntity {
            offset: pos,
            entity: after.chars().take(12).collect(),
        })?;
        let body = &after[..semi];
        out.push(resolve_entity(body, pos)?);
        rest = &after[semi + 1..];
        pos += 1 + semi + 1;
    }
    out.push_str(rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_borrows_when_clean() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
        assert!(matches!(escape_text("a&b"), Cow::Owned(_)));
    }

    #[test]
    fn escape_text_handles_all_specials() {
        assert_eq!(escape_text("<a>&</a>"), "&lt;a&gt;&amp;&lt;/a&gt;");
    }

    #[test]
    fn escape_attr_escapes_quotes() {
        assert_eq!(escape_attr(r#"say "hi" & go"#), "say &quot;hi&quot; &amp; go");
        // Text escaping leaves quotes alone.
        assert_eq!(escape_text(r#""q""#), r#""q""#);
    }

    #[test]
    fn unescape_predefined_entities() {
        assert_eq!(unescape("&amp;&lt;&gt;&apos;&quot;", 0).unwrap(), "&<>'\"");
    }

    #[test]
    fn unescape_numeric_references() {
        assert_eq!(unescape("&#65;&#66;", 0).unwrap(), "AB");
        assert_eq!(unescape("&#x41;&#X42;", 0).unwrap(), "AB");
        assert_eq!(unescape("snow&#x2603;man", 0).unwrap(), "snow\u{2603}man");
    }

    #[test]
    fn unescape_borrows_without_amp() {
        assert!(matches!(unescape("no entities", 0).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        let err = unescape("x&nbsp;y", 10).unwrap_err();
        assert_eq!(err, XmlError::BadEntity { offset: 11, entity: "nbsp".into() });
    }

    #[test]
    fn unescape_rejects_unterminated_entity() {
        let err = unescape("x&ampy", 0).unwrap_err();
        assert!(matches!(err, XmlError::BadEntity { offset: 1, .. }));
    }

    #[test]
    fn unescape_rejects_invalid_codepoint() {
        assert!(unescape("&#xD800;", 0).is_err()); // surrogate
        assert!(unescape("&#99999999;", 0).is_err()); // out of range
        assert!(unescape("&#xZZ;", 0).is_err());
        assert!(unescape("&#;", 0).is_err());
        assert!(unescape("&;", 0).is_err());
    }

    #[test]
    fn round_trip_text() {
        let original = "a < b && c > \"d\" 'e' \u{2603}";
        let escaped = escape_text(original);
        assert_eq!(unescape(&escaped, 0).unwrap(), original);
    }

    #[test]
    fn entity_error_offsets_are_relative_to_base() {
        let err = unescape("abc&bogus;", 100).unwrap_err();
        assert_eq!(err, XmlError::BadEntity { offset: 103, entity: "bogus".into() });
        // Second entity in the string: offset accounts for the first one.
        let err = unescape("&lt;&bogus;", 100).unwrap_err();
        assert_eq!(err, XmlError::BadEntity { offset: 104, entity: "bogus".into() });
    }
}
