//! Property tests for the adaptive-ladder checkpoint codec: the rung
//! temperatures and gap factors that drive swap-rate targeting must
//! survive a checkpoint/resume cycle bit-exactly (a ladder restored at
//! `f64` rounding distance would diverge from the uninterrupted run),
//! and a damaged ladder section must surface as a typed error, never a
//! panic or a silently wrong ladder.

use proptest::prelude::*;

use twmc_resume::codec::Codec;
use twmc_resume::{decode, encode, CheckpointError};

/// Temperatures as raw bit patterns: covers subnormals, infinities,
/// NaNs, and negative zero — everything the codec may ever meet.
fn arb_temps() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 0..32)
}

/// A short lowercase-alphanumeric token (the stand-in proptest has no
/// regex strategies).
fn arb_junk() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..36, 1..13).prop_map(|xs| {
        xs.iter()
            .map(|&i| b"abcdefghijklmnopqrstuvwxyz0123456789"[i] as char)
            .collect()
    })
}

fn bits(temps: &[f64]) -> Vec<u64> {
    temps.iter().map(|t| t.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ladder_temperatures_roundtrip_bit_exactly(temps in arb_temps()) {
        let back = Vec::<f64>::decode(&temps.encode()).expect("own encoding decodes");
        prop_assert_eq!(bits(&back), bits(&temps));
    }

    #[test]
    fn ladder_temperatures_survive_the_full_envelope(temps in arb_temps(), gaps in arb_temps()) {
        // The same path a tempering checkpoint takes: ladder arrays in
        // a payload object, through the checksummed envelope, back out.
        let payload = serde::Value::Object(vec![
            ("temps".to_owned(), temps.encode()),
            ("gaps".to_owned(), gaps.encode()),
        ]);
        let decoded = decode(&encode(&payload)).expect("own envelope decodes");
        let serde::Value::Object(entries) = decoded else {
            panic!("payload is not an object");
        };
        let get = |name: &str| {
            entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| Vec::<f64>::decode(v).expect("array decodes"))
                .expect("field present")
        };
        prop_assert_eq!(bits(&get("temps")), bits(&temps));
        prop_assert_eq!(bits(&get("gaps")), bits(&gaps));
    }

    #[test]
    fn corrupted_ladder_entries_are_typed_errors(temps in arb_temps(), junk in arb_junk()) {
        // Replace one bit-pattern with a non-numeric token: the decoder
        // must reject rather than improvise a temperature.
        prop_assume!(!temps.is_empty());
        let mut items = match temps.encode() {
            serde::Value::Array(items) => items,
            v => panic!("not an array: {v:?}"),
        };
        let slot = junk.len() % items.len();
        items[slot] = serde::Value::Str(junk);
        prop_assert!(matches!(
            Vec::<f64>::decode(&serde::Value::Array(items)),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn a_flipped_byte_never_yields_a_different_ladder(temps in arb_temps(), pos in any::<u64>(), delta in 1u8..=255) {
        let payload = serde::Value::Object(vec![("temps".to_owned(), temps.encode())]);
        let text = encode(&payload);
        let mut bytes = text.clone().into_bytes();
        let at = pos as usize % bytes.len();
        bytes[at] = bytes[at].wrapping_add(delta);
        let Ok(mutated) = String::from_utf8(bytes) else {
            return Ok(()); // non-UTF8 never reaches the decoder
        };
        // The checksum either catches the flip (typed error) or the
        // flip landed in a spot that decodes back to the same ladder —
        // what must never happen is a *different* ladder sneaking in.
        if let Ok(serde::Value::Object(entries)) = decode(&mutated) {
            let round = entries
                .iter()
                .find(|(k, _)| k == "temps")
                .and_then(|(_, v)| Vec::<f64>::decode(v).ok())
                .expect("verified payload keeps its shape");
            prop_assert_eq!(bits(&round), bits(&temps), "flip at byte {} altered the ladder", at);
        }
    }
}
