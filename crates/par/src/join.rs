//! Two- and four-way fork-join for heterogeneous independent computations.

/// Runs `fa` and `fb` concurrently and returns both results.
///
/// With one effective worker the two closures run sequentially on the
/// calling thread, in argument order. `fb` runs on a spawned thread; `fa`
/// runs on the caller, so half the work pays no spawn cost.
///
/// # Panics
///
/// Propagates a panic from either closure (both are always completed or
/// joined first).
pub fn join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if crate::jobs() <= 1 {
        return (fa(), fb());
    }
    std::thread::scope(|scope| {
        // `fb`'s spans record a pooled aux lane; its scope closes any frame
        // `fb` leaves open and hands them back to follow `fa`'s.
        let hb = scope.spawn(move || {
            let obs_scope = rememberr_obs::aux_scope();
            (fb(), obs_scope.finish())
        });
        let a = fa();
        match hb.join() {
            Ok((b, spans)) => {
                rememberr_obs::adopt(spans);
                (a, b)
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Four-way [`join`].
///
/// # Panics
///
/// Propagates a panic from any closure.
pub fn join4<A, B, C, D, FA, FB, FC, FD>(fa: FA, fb: FB, fc: FC, fd: FD) -> (A, B, C, D)
where
    A: Send,
    B: Send,
    C: Send,
    D: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
    FC: FnOnce() -> C + Send,
    FD: FnOnce() -> D + Send,
{
    let ((a, b), (c, d)) = join(|| join(fa, fb), || join(fc, fd));
    (a, b, c, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusive;

    #[test]
    fn join_returns_both_results() {
        let _gate = exclusive(Some(2));
        let (a, b) = join(|| 1 + 1, || "two".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "two");
        crate::set_jobs(None);
    }

    #[test]
    fn join_sequential_when_single_job() {
        let _gate = exclusive(Some(1));
        let main_thread = std::thread::current().id();
        let (ta, tb) = join(
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(ta, main_thread);
        assert_eq!(tb, main_thread);
        crate::set_jobs(None);
    }

    #[test]
    fn join4_fans_out_and_preserves_positions() {
        let _gate = exclusive(Some(4));
        let (a, b, c, d) = join4(|| 'a', || 'b', || 'c', || 'd');
        assert_eq!((a, b, c, d), ('a', 'b', 'c', 'd'));
        crate::set_jobs(None);
    }

    #[test]
    fn join_propagates_spawned_panic() {
        let _gate = exclusive(Some(2));
        let result = std::panic::catch_unwind(|| {
            join(
                || 1,
                || -> i32 { panic!("spawned closure failure under test") },
            )
        });
        assert!(result.is_err());
        crate::set_jobs(None);
    }
}
