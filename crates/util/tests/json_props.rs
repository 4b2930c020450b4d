//! Property tests for `mobisense_util::json`: strings, floats and
//! integers round-trip through the writer and reader exactly, typed
//! reads reject values outside their type, and no input — arbitrary
//! bytes, token soup, or a truncated valid document — panics the
//! reader, which reads files from outside the program (bench baselines,
//! JSONL dumps).

use mobisense_util::json::{parse_object, Field, Num, Str};
use proptest::prelude::*;
use proptest::strategy::StrategyExt;

/// Any Unicode scalar, biased toward ASCII (controls, `"`, `\`) and
/// two-byte characters so escapes are common; surrogates, which no
/// Rust string can hold, map to U+D7FF.
fn any_char() -> impl Strategy<Value = char> {
    (0u32..3, 0u32..0x11_0000).prop_map(|(class, c)| {
        let c = match class {
            0 => c % 0x80,
            1 => c % 0x800,
            _ => c,
        };
        char::from_u32(c).unwrap_or('\u{d7ff}')
    })
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Unsigned values spread over every width: below 512, below 2^33,
/// and anywhere in `u64`.
fn any_unsigned() -> impl Strategy<Value = u64> {
    (0u32..3, 0u64..u64::MAX).prop_map(|(class, v)| match class {
        0 => v % 512,
        1 => v % (1 << 33),
        _ => v,
    })
}

fn one_field<T: Field>(value_json: &str) -> Result<T, String> {
    parse_object(&format!("{{\"k\":{value_json}}}"))?.get("k")
}

fn written<T: Field>(v: &T) -> String {
    let mut out = String::new();
    v.write(&mut out);
    out
}

proptest! {
    #[test]
    fn strings_round_trip_as_values_and_keys(s in any_string(), t in any_string()) {
        prop_assume!(s != "t");
        let doc = format!("{{{}: {}, \"t\": {}}}", Str(&s), Str(&t), written(&t));
        let obj = parse_object(&doc);
        prop_assert!(obj.is_ok(), "{doc:?}: {:?}", obj.err());
        let obj = obj.expect("checked");
        prop_assert_eq!(obj.get::<String>(&s), Ok(t.clone()));
        prop_assert_eq!(obj.get::<Option<String>>("t"), Ok(Some(t.clone())));
        prop_assert!(obj.keys().any(|k| k == s));
        prop_assert!(!Str(&s).to_string().chars().any(|c| c < ' '), "raw control in {s:?}");
    }

    #[test]
    fn finite_floats_round_trip_bit_exactly(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let text = Num(v).to_string();
        prop_assert_eq!(&text, &written(&v));
        let back = one_field::<f64>(&text);
        prop_assert!(back.is_ok(), "{text}: {:?}", back.err());
        prop_assert_eq!(back.expect("checked").to_bits(), bits);
    }

    #[test]
    fn unsigned_fields_round_trip_and_reject_overflow(v in any_unsigned()) {
        prop_assert_eq!(one_field::<u64>(&written(&v)), Ok(v));
        let text = v.to_string();
        prop_assert_eq!(one_field::<u8>(&text).ok(), u8::try_from(v).ok());
        prop_assert_eq!(one_field::<u32>(&text).ok(), u32::try_from(v).ok());
        if let Ok(small) = u8::try_from(v) {
            prop_assert_eq!(one_field::<u8>(&written(&small)), Ok(small));
        }
        if let Ok(mid) = u32::try_from(v) {
            prop_assert_eq!(one_field::<u32>(&written(&mid)), Ok(mid));
        }
        prop_assert!(one_field::<u8>("256").is_err());
        prop_assert!(one_field::<u32>("4294967296").is_err());
        prop_assert!(one_field::<u64>("18446744073709551616").is_err());
        for bad in [format!("1{v:020}"), format!("-{v}"), format!("{v}.5")] {
            prop_assert!(one_field::<u64>(&bad).is_err(), "{bad} read as a u64");
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..256),
    ) {
        let _ = parse_object(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics_the_reader(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "{", "}", "[", "\"", "\\", "\\u", "d83d", "\\ude00", ":", ",", " ", "\n",
                "0", "-", "1", "e", "E", "+", ".", "9", "null", "nul", "true", "false",
                "\"k\"", "é", "😀", "\u{1}",
            ]),
            0..64,
        ),
    ) {
        let _ = parse_object(&tokens.concat());
    }

    #[test]
    fn truncated_documents_are_errors_not_panics(
        s in any_string(),
        n in any_unsigned(),
        bits in 0u64..u64::MAX,
    ) {
        let doc = format!(
            "{{\"s\": {}, \"n\": {n}, \"f\": {}, \"o\": {{\"b\": true, \"z\": null}}}}",
            Str(&s),
            Num(f64::from_bits(bits)),
        );
        prop_assert!(parse_object(&doc).is_ok(), "{doc:?}");
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            prop_assert!(parse_object(&doc[..cut]).is_err(), "prefix {:?}", &doc[..cut]);
        }
    }
}
