//! Property test for the bounded top-k selection: it must return exactly
//! the prefix of a full sort by descending score, ties broken by
//! ascending vertex id, with `-0.0` tying `+0.0`.

use dynbc_bc::top_k;
use proptest::prelude::*;

/// The full-sort reference: rank every vertex, keep the first `k`.
fn full_sort(scores: &[f64], k: usize) -> Vec<(u32, f64)> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx.into_iter().map(|v| (v, scores[v as usize])).collect()
}

/// Vertex ids and score bits, so a `-0.0`/`+0.0` mix-up shows.
fn bits(ranked: &[(u32, f64)]) -> Vec<(u32, u64)> {
    ranked.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

/// The k values the contract names for a vector of length `n`.
fn ks(n: usize) -> [usize; 5] {
    [0, 1, n.saturating_sub(1), n, n + 3]
}

/// Scores drawn from five levels so most vectors carry many ties; level
/// 0 comes out as `+0.0` or `-0.0` at random.
fn arb_scores() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u8..5, any::<bool>(), 0u8..4), 0..48).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(level, neg, frac)| match level {
                0 if neg => -0.0,
                0 => 0.0,
                // A few levels stay integral (ties); others get a
                // fractional part from a small set (still tying often).
                1 | 2 => f64::from(level),
                _ => f64::from(level) + f64::from(frac) / 4.0,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounded_selection_matches_full_sort(scores in arb_scores()) {
        for k in ks(scores.len()) {
            prop_assert_eq!(bits(&top_k(&scores, k)), bits(&full_sort(&scores, k)));
        }
    }

    #[test]
    fn uniform_scores_match_full_sort(scores in proptest::collection::vec(0.0f64..1.0, 0..64)) {
        for k in ks(scores.len()) {
            prop_assert_eq!(bits(&top_k(&scores, k)), bits(&full_sort(&scores, k)));
        }
    }
}

#[test]
fn empty_scores_give_empty_answers() {
    for k in ks(0) {
        assert!(top_k(&[], k).is_empty());
    }
}

#[test]
fn signed_zeros_tie_and_keep_their_own_bits() {
    let scores = [-0.0, 0.0, -0.0, 1.0];
    assert_eq!(
        bits(&top_k(&scores, 3)),
        bits(&[(3, 1.0), (0, -0.0), (1, 0.0)])
    );
}

#[test]
#[should_panic(expected = "never NaN")]
fn nan_score_panics() {
    top_k(&[1.0, f64::NAN, 0.5], 2);
}
