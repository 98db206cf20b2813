//! A worker that panics has its panic resumed on the caller with the
//! worker's own payload, in every kernel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

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
}

/// Run `run` on a thread of its own and return the message of its panic
/// payload (`None` if it returned). Fails if `run` has not finished within
/// ten seconds, so a hang fails the test instead of stalling the suite.
fn panic_within_deadline(run: impl FnOnce() + Send + 'static) -> Option<&'static str> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let payload = catch_unwind(AssertUnwindSafe(run)).err();
        let _ = tx.send(payload.map(|p| p.downcast_ref::<&str>().copied()));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("still running after ten seconds: hung")
        .map(|message| message.expect("a &str payload"))
}

#[test]
fn produce_consume_resumes_the_consumers_panic_with_a_full_queue() {
    // 64 items into a 2-slot queue: the producer blocks on the full queue
    // while every consumer panics, and must be woken.
    let message = panic_within_deadline(|| {
        produce_consume(4, 2, |push| (0..64).for_each(push), |v| boom(&v));
    });
    assert_eq!(message, Some("worker boom"));
}

#[test]
fn produce_consume_resumes_the_producers_panic() {
    // The consumers wait in `pop` on a queue the producer never closes
    // itself.
    let message = panic_within_deadline(|| {
        produce_consume(
            4,
            2,
            |push| {
                push(1u32);
                panic!("producer boom")
            },
            |v| v,
        );
    });
    assert_eq!(message, Some("producer boom"));
}
