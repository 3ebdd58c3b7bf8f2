//! Property-based robustness tests for the checkpoint format: no input
//! — corrupted, truncated, version-skewed, or outright garbage — may
//! panic the decoder or slip past verification.

use proptest::prelude::*;

use serde::Value;
use twmc_resume::codec::Codec;
use twmc_resume::{decode, encode, read_checkpoint, write_checkpoint, CheckpointError, VERSION};

/// Lowercase identifier-like strings (the shape real payload keys and
/// tags take; content is irrelevant to the corruption properties).
fn arb_word() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..9)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u64>().prop_map(Value::UInt),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(|x| x.encode()),
        arb_word().prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// A small but structurally varied payload tree: scalars and arrays
/// under string keys, like the real pipeline states serialize.
fn arb_payload() -> impl Strategy<Value = Value> {
    let field = prop_oneof![
        arb_scalar(),
        prop::collection::vec(arb_scalar(), 0..6).prop_map(Value::Array),
    ];
    prop::collection::vec((arb_word(), field), 1..8).prop_map(Value::Object)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_is_lossless(payload in arb_payload()) {
        let text = encode(&payload);
        let back = decode(&text).expect("own encoding decodes");
        // Compare through re-encoding: variant-insensitive, text-exact.
        prop_assert_eq!(encode(&back), text);
    }

    #[test]
    fn truncation_is_always_a_typed_error(payload in arb_payload(), frac in 0.0f64..1.0) {
        let text = encode(&payload);
        let cut = ((text.len() as f64) * frac) as usize;
        prop_assert!(cut < text.len());
        prop_assert!(
            matches!(decode(&text[..cut]), Err(CheckpointError::Corrupt(_))),
            "truncation at byte {} must be Corrupt", cut
        );
    }

    #[test]
    fn single_byte_corruption_never_verifies(
        payload in arb_payload(),
        pos in 0usize..1_000_000,
        flip in 1u8..=255,
    ) {
        let text = encode(&payload);
        let mut bytes = text.into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip; // guaranteed different from the original
        let Ok(mutated) = String::from_utf8(bytes) else {
            return Ok(()); // non-UTF8 never reaches the decoder
        };
        prop_assert!(
            decode(&mutated).is_err(),
            "flipped byte {} still verified", pos
        );
    }

    #[test]
    fn unknown_versions_are_rejected_by_number(payload in arb_payload(), version in any::<u64>()) {
        prop_assume!(version != VERSION);
        let text = encode(&payload).replacen(
            &format!("\"version\":{VERSION},"),
            &format!("\"version\":{version},"),
            1,
        );
        prop_assert!(
            matches!(decode(&text), Err(CheckpointError::BadVersion(v)) if v == version),
            "version {} must be BadVersion", version
        );
    }

    #[test]
    fn arbitrary_text_never_panics(junk in prop::collection::vec(any::<u8>(), 0..256)) {
        // Random text is overwhelmingly Corrupt; the property under
        // test is simply that the decoder returns rather than panics.
        let _ = decode(&String::from_utf8_lossy(&junk));
    }
}

/// On-disk damage the matrix below applies to `run.ckpt` or its
/// `.tmp` sibling (the two files a crash mid-atomic-write can leave in
/// any combination).
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// File does not exist.
    Absent,
    /// File is the intact encoding.
    Intact,
    /// File holds a prefix of the encoding (torn write).
    Truncated,
    /// One byte of the encoding is XOR-flipped.
    BitFlipped,
    /// File holds unrelated bytes.
    Garbage,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::Absent),
        Just(Damage::Intact),
        Just(Damage::Truncated),
        Just(Damage::BitFlipped),
        Just(Damage::Garbage),
    ]
}

/// Applies `damage` to `path`, deriving the torn/flipped variant from
/// the intact encoding and the proptest-drawn knobs.
fn apply_damage(path: &std::path::Path, text: &str, damage: Damage, pos: usize, flip: u8) {
    let _ = std::fs::remove_file(path);
    match damage {
        Damage::Absent => {}
        Damage::Intact => std::fs::write(path, text).unwrap(),
        Damage::Truncated => std::fs::write(path, &text.as_bytes()[..pos % text.len()]).unwrap(),
        Damage::BitFlipped => {
            let mut bytes = text.as_bytes().to_vec();
            let i = pos % bytes.len();
            bytes[i] ^= flip;
            std::fs::write(path, bytes).unwrap();
        }
        Damage::Garbage => std::fs::write(path, b"not a checkpoint at all").unwrap(),
    }
}

proptest! {
    // Filesystem cases are slower than pure decoding; 64 draws over a
    // 5x5 damage matrix still covers every combination many times.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The crash-recovery contract of the on-disk format: whatever
    /// combination of damage a crash left on `run.ckpt` *and* its
    /// `.tmp` sibling, `read_checkpoint` either returns the intact
    /// payload or a typed [`CheckpointError`] — never a panic, and
    /// never a wrong payload that verifies. The `.tmp` sibling must
    /// never influence the result: the atomic-write discipline only
    /// ever publishes via rename, so the reader ignores it entirely.
    #[test]
    fn damaged_ckpt_and_tmp_sibling_never_panic_or_misverify(
        payload in arb_payload(),
        ckpt_damage in arb_damage(),
        tmp_damage in arb_damage(),
        pos in 0usize..1_000_000,
        flip in 1u8..=255,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "twmc-resume-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        // The intact encoding, as write_checkpoint would publish it.
        write_checkpoint(&path, &payload).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        apply_damage(&path, &text, ckpt_damage, pos, flip);
        apply_damage(&twmc_fault::tmp_sibling(&path), &text, tmp_damage, pos, flip);

        let result = read_checkpoint(&path);
        match (ckpt_damage, &result) {
            // An intact file decodes regardless of the sibling.
            (Damage::Intact, Ok(back)) => prop_assert_eq!(encode(back), text),
            (Damage::Intact, Err(e)) => prop_assert!(false, "intact ckpt failed: {e}"),
            (Damage::Absent, Err(CheckpointError::Missing(_))) => {}
            // Every other damage must surface as a typed error: a torn
            // or garbage file decodes as Corrupt/BadMagic, a flipped
            // byte fails the checksum (or breaks the UTF-8 and comes
            // back Unreadable) — never a panic, never a wrong payload.
            (_, Err(
                CheckpointError::Corrupt(_)
                | CheckpointError::BadMagic(_)
                | CheckpointError::BadVersion(_)
                | CheckpointError::BadChecksum { .. }
                | CheckpointError::Unreadable { .. },
            )) => {}
            (d, r) => prop_assert!(
                false,
                "damage {d:?} produced unexpected result {r:?}"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
