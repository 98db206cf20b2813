//! Property tests: every parallel kernel agrees with its sequential
//! counterpart for arbitrary inputs and thread counts — the data-race
//! freedom story told through outputs.

use dsspy_parallel::{
    par_find_all, par_find_first, par_for_init, par_map, par_map_weighted, par_max_by_key,
    par_merge_sort, par_merge_sort_by_key, BlockingQueue,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn map_matches(input in proptest::collection::vec(any::<i32>(), 0..2000), threads in 0usize..9) {
        let seq: Vec<i64> = input.iter().map(|v| i64::from(*v) * 3 - 1).collect();
        let par = par_map(&input, threads, |v| i64::from(*v) * 3 - 1);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn for_init_matches(len in 0usize..2000, threads in 0usize..9) {
        let seq: Vec<u64> = (0..len as u64).map(|i| i * i + 7).collect();
        let par = par_for_init(len, threads, |i| (i as u64) * (i as u64) + 7);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn map_weighted_matches(
        input in proptest::collection::vec((0usize..50, any::<i32>()), 0..2000),
        threads in 0usize..9,
    ) {
        // Weights include zeros and can pile up on a few items.
        let seq: Vec<i64> = input.iter().map(|&(_, v)| i64::from(v) - 5).collect();
        let par = par_map_weighted(&input, threads, |&(w, _)| w, || 0usize, |calls, &(_, v)| {
            *calls += 1;
            i64::from(v) - 5
        });
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn merge_sort_by_key_is_a_sorted_permutation(
        input in proptest::collection::vec((0u8..4, any::<u16>()), 0..3000),
        threads in 0usize..9,
    ) {
        // Four keys over up to 3000 items: ties everywhere.
        let mut par = input.clone();
        par_merge_sort_by_key(&mut par, threads, |&(k, _)| k);
        prop_assert!(par.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut expect = input;
        expect.sort_unstable();
        par.sort_unstable();
        prop_assert_eq!(par, expect);
    }

    #[test]
    fn find_first_matches(input in proptest::collection::vec(0u8..8, 0..2000), needle in 0u8..8, threads in 0usize..9) {
        let seq = input.iter().position(|v| *v == needle);
        let par = par_find_first(&input, threads, |v| *v == needle);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn find_all_matches(input in proptest::collection::vec(0u8..4, 0..2000), threads in 0usize..9) {
        let seq: Vec<usize> = input.iter().enumerate().filter(|(_, v)| **v == 0).map(|(i, _)| i).collect();
        let par = par_find_all(&input, threads, |v| *v == 0);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn max_by_key_matches(input in proptest::collection::vec(any::<i16>(), 0..2000), threads in 0usize..9) {
        let seq = {
            let mut best: Option<(usize, i16)> = None;
            for (i, v) in input.iter().enumerate() {
                match best {
                    Some((_, bv)) if bv >= *v => {}
                    _ => best = Some((i, *v)),
                }
            }
            best.map(|(i, _)| i)
        };
        let par = par_max_by_key(&input, threads, |v| *v);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn merge_sort_matches(input in proptest::collection::vec(any::<i32>(), 0..3000), threads in 0usize..9) {
        let mut seq = input.clone();
        seq.sort_unstable();
        let mut par = input;
        par_merge_sort(&mut par, threads);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn queue_is_a_permutation(items in proptest::collection::vec(any::<u32>(), 0..500), consumers in 1usize..5) {
        let q: BlockingQueue<u32> = BlockingQueue::unbounded();
        for &v in &items {
            q.push(v).unwrap();
        }
        q.close();
        let mut got: Vec<u32> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..consumers)
                .map(|_| {
                    let q = q.clone();
                    s.spawn(move || {
                        let mut part = Vec::new();
                        while let Some(v) = q.pop() {
                            part.push(v);
                        }
                        part
                    })
                })
                .collect();
            for h in handles {
                got.extend(h.join().unwrap());
            }
        });
        let mut expect = items;
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
