//! A worker that panics has its panic resumed on the caller with the
//! worker's own payload, in every kernel.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dsspy_parallel::{
    par_find_all, par_find_first, par_for_init, par_map, par_map_weighted, par_max_by_key,
    par_merge_sort_by_key, produce_consume,
};

fn boom(_: &u32) -> bool {
    panic!("worker boom")
}

#[test]
fn every_kernel_resumes_the_workers_panic_payload() {
    // Each kernel runs on 4 workers and every call of its closure panics.
    let input: Vec<u32> = (0..1000).collect();
    let check = |kernel: &str, run: &dyn Fn()| {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err(kernel);
        let message = payload.downcast_ref::<&str>().copied();
        assert_eq!(message, Some("worker boom"), "{kernel}");
    };
    check("par_map", &|| {
        par_map(&input, 4, boom);
    });
    check("par_map_weighted", &|| {
        par_map_weighted(&input, 4, |_| 1, || (), |(), v| boom(v));
    });
    check("par_for_init", &|| {
        par_for_init(1000, 4, |i| boom(&(i as u32)));
    });
    check("par_find_first", &|| {
        par_find_first(&input, 4, boom);
    });
    check("par_find_all", &|| {
        par_find_all(&input, 4, boom);
    });
    check("par_max_by_key", &|| {
        par_max_by_key(&input, 4, boom);
    });
    check("par_merge_sort_by_key", &|| {
        par_merge_sort_by_key(&mut input.clone(), 4, boom)
    });
    // The eight items fit the queue: a producer blocked on a full queue
    // whose consumers have all panicked would wait forever.
    check("produce_consume", &|| {
        produce_consume(4, 16, |push| (0..8).for_each(push), |v| boom(&v));
    });
}
