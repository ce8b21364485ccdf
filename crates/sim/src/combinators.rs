//! Small future combinators used by the replication protocols.
//!
//! The protocols need exactly four shapes of concurrency:
//!
//! * [`join2`] / [`join_boxed`] — run operations fully in parallel (e.g.,
//!   Safe-Guess `in parallel { M.READ(), M.WRITE(w) }`); a joined batch is a
//!   [`Quorum`] that needs every one.
//! * [`Quorum`] — wait for `k` of `n` responses, leaving stragglers running
//!   (majority waits in the reliable max register and timestamp lock).
//! * [`race2`] — first of two futures (failure-detection timeouts).
//! * [`timeout_at`] — bound a wait by a virtual-time deadline *without*
//!   consuming the underlying future, so callers can widen a quorum after an
//!   optimistic majority send times out (§6 of the paper).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::executor::Sim;
use crate::time::Nanos;

/// Awaits two futures concurrently and returns both results.
pub async fn join2<A, B>(a: impl Future<Output = A>, b: impl Future<Output = B>) -> (A, B) {
    let j = Join2 {
        a: Some(Box::pin(a)),
        b: Some(Box::pin(b)),
        ra: None,
        rb: None,
    };
    j.await
}

struct Join2<'f, A, B> {
    a: Option<Pin<Box<dyn Future<Output = A> + 'f>>>,
    b: Option<Pin<Box<dyn Future<Output = B> + 'f>>>,
    ra: Option<A>,
    rb: Option<B>,
}

// `Join2` never projects a pin to its value fields; they are only moved out
// when ready, so it is structurally `Unpin`.
impl<A, B> Unpin for Join2<'_, A, B> {}

impl<A, B> Future for Join2<'_, A, B> {
    type Output = (A, B);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<(A, B)> {
        let this = self.get_mut();
        if let Some(f) = this.a.as_mut() {
            if let Poll::Ready(v) = f.as_mut().poll(cx) {
                this.ra = Some(v);
                this.a = None;
            }
        }
        if let Some(f) = this.b.as_mut() {
            if let Poll::Ready(v) = f.as_mut().poll(cx) {
                this.rb = Some(v);
                this.b = None;
            }
        }
        if this.ra.is_some() && this.rb.is_some() {
            Poll::Ready((this.ra.take().unwrap(), this.rb.take().unwrap()))
        } else {
            Poll::Pending
        }
    }
}

/// A boxed, pinned future with an arbitrary lifetime (the currency of
/// [`join_boxed`]).
pub type BoxFuture<'f, T> = Pin<Box<dyn Future<Output = T> + 'f>>;

/// Awaits a batch of boxed futures concurrently, returning results in input
/// order: a [`Quorum`] over the batch that needs all of it.
///
/// The futures may borrow (`'f` instead of `'static`), which is what
/// store-level batch operations need: each per-key operation borrows its
/// client handle.
pub async fn join_boxed<T>(futs: Vec<BoxFuture<'_, T>>) -> Vec<T> {
    let mut q = Quorum::all(futs);
    (&mut q).await;
    q.take_results()
        .into_iter()
        .map(|r| r.expect("a full quorum completed every future"))
        .collect()
}

/// Result of [`race2`].
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Awaits the first of two futures to complete; the loser is dropped.
pub async fn race2<A, B>(a: impl Future<Output = A>, b: impl Future<Output = B>) -> Either<A, B> {
    Race2 {
        a: Box::pin(a),
        b: Box::pin(b),
    }
    .await
}

struct Race2<'f, A, B> {
    a: Pin<Box<dyn Future<Output = A> + 'f>>,
    b: Pin<Box<dyn Future<Output = B> + 'f>>,
}

// Same reasoning as `Join2`: both fields are boxed futures, hence `Unpin`.
impl<A, B> Unpin for Race2<'_, A, B> {}

impl<A, B> Future for Race2<'_, A, B> {
    type Output = Either<A, B>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(v) = self.a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = self.b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

/// Marker returned when [`timeout_at`] fires before the inner future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut;

/// Awaits `fut` (by mutable reference) until virtual time `deadline`.
///
/// On timeout the inner future is *not* consumed: callers keep ownership and
/// may push more sub-futures into a [`Quorum`] and await it again. This is how
/// the implementation models "optimistically contact a majority; on a slow
/// response, contact all replicas" (§6).
pub async fn timeout_at<F>(sim: &Sim, deadline: Nanos, fut: F) -> Result<F::Output, TimedOut>
where
    F: Future + Unpin,
{
    match race2(fut, sim.sleep_until(deadline)).await {
        Either::Left(v) => Ok(v),
        Either::Right(()) => Err(TimedOut),
    }
}

/// Waits for `needed` of the pushed futures to complete.
///
/// `Quorum` is `Unpin` and is usually awaited by `&mut` so that, after a
/// majority completes (or a timeout fires), the caller can inspect partial
/// [`results`](Quorum::results) or [`push`](Quorum::push) additional futures
/// and await again. Futures that never complete (crashed nodes) simply stay
/// pending; device-level side effects of already-submitted operations are
/// unaffected by dropping the `Quorum`.
pub struct Quorum<'f, T> {
    futs: Vec<Option<BoxFuture<'f, T>>>,
    results: Vec<Option<T>>,
    completed: usize,
    needed: usize,
}

impl<'f, T> Quorum<'f, T> {
    /// Creates an empty quorum waiting for `needed` completions.
    pub fn new(needed: usize) -> Self {
        Quorum {
            futs: Vec::new(),
            results: Vec::new(),
            completed: 0,
            needed,
        }
    }

    /// A quorum over already-boxed futures that needs every one of them.
    pub fn all(futs: Vec<BoxFuture<'f, T>>) -> Self {
        Quorum {
            results: futs.iter().map(|_| None).collect(),
            completed: 0,
            needed: futs.len(),
            futs: futs.into_iter().map(Some).collect(),
        }
    }

    /// Adds a future; returns its slot index.
    pub fn push(&mut self, fut: impl Future<Output = T> + 'f) -> usize {
        self.futs.push(Some(Box::pin(fut)));
        self.results.push(None);
        self.futs.len() - 1
    }

    /// Number of futures that have completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Number of futures pushed in total.
    pub fn len(&self) -> usize {
        self.futs.len()
    }

    /// True if no futures were pushed.
    pub fn is_empty(&self) -> bool {
        self.futs.is_empty()
    }

    /// Results gathered so far, indexed by push order (`None` = still
    /// pending).
    pub fn results(&self) -> &[Option<T>] {
        &self.results
    }

    /// Consumes the quorum, returning all gathered results.
    pub fn take_results(self) -> Vec<Option<T>> {
        self.results
    }
}

impl<T> Future for &mut Quorum<'_, T> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut **self;
        for i in 0..this.futs.len() {
            if let Some(f) = this.futs[i].as_mut() {
                if let Poll::Ready(v) = f.as_mut().poll(cx) {
                    this.results[i] = Some(v);
                    this.futs[i] = None;
                    this.completed += 1;
                }
            }
        }
        if this.completed >= this.needed {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    fn delayed(sim: &Sim, delay: Nanos, v: u32) -> impl Future<Output = u32> {
        let s = sim.clone();
        async move {
            s.sleep_ns(delay).await;
            v
        }
    }

    #[test]
    fn join2_waits_for_both() {
        let sim = Sim::new(1);
        let (a, b) = (delayed(&sim, 100, 1), delayed(&sim, 300, 2));
        let s = sim.clone();
        let ((ra, rb), t) = sim.block_on(async move {
            let r = join2(a, b).await;
            (r, s.now())
        });
        assert_eq!((ra, rb), (1, 2));
        assert_eq!(t, 300);
    }

    #[test]
    fn join_boxed_runs_borrowing_futures_concurrently() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let (out, t) = sim.block_on(async move {
            // Futures that borrow a local.
            let delays = [300u64, 100, 200];
            let futs: Vec<BoxFuture<'_, u64>> = delays
                .iter()
                .map(|&d| {
                    let s2 = s.clone();
                    Box::pin(async move {
                        s2.sleep_ns(d).await;
                        d
                    }) as BoxFuture<'_, u64>
                })
                .collect();
            (join_boxed(futs).await, s.now())
        });
        assert_eq!(out, vec![300, 100, 200]);
        assert_eq!(t, 300, "futures must overlap, not serialize");
    }

    #[test]
    fn join_boxed_empty_batch_resolves_immediately() {
        let sim = Sim::new(2);
        let out: Vec<u8> = sim.block_on(async move { join_boxed(Vec::new()).await });
        assert!(out.is_empty());
    }

    #[test]
    fn race2_returns_winner() {
        let sim = Sim::new(1);
        let (a, b) = (delayed(&sim, 500, 1), delayed(&sim, 100, 2));
        match sim.block_on(async move { race2(a, b).await }) {
            Either::Right(v) => assert_eq!(v, 2),
            Either::Left(_) => panic!("slow future won"),
        }
    }

    #[test]
    fn quorum_completes_at_threshold() {
        let sim = Sim::new(1);
        let mut q = Quorum::new(2);
        q.push(delayed(&sim, 100, 1));
        q.push(delayed(&sim, 900, 2));
        q.push(delayed(&sim, 200, 3));
        let s = sim.clone();
        let (t, done) = sim.block_on(async move {
            (&mut q).await;
            (s.now(), q.completed())
        });
        assert_eq!(t, 200);
        assert_eq!(done, 2);
    }

    #[test]
    fn quorum_can_be_widened_after_timeout() {
        let sim = Sim::new(1);
        let mut q = Quorum::new(2);
        q.push(delayed(&sim, 100, 1));
        // The second "replica" never answers (simulated crash): push a future
        // that sleeps effectively forever.
        q.push(delayed(&sim, u64::MAX / 2, 2));
        let s = sim.clone();
        let out = sim.block_on(async move {
            let r = timeout_at(&s, 1_000, &mut q).await;
            assert_eq!(r, Err(TimedOut));
            assert_eq!(q.completed(), 1);
            // Widen: contact a third replica, still needing 2 total.
            q.push(delayed(&s, 100, 3));
            (&mut q).await;
            q.results()[0].unwrap() + q.results()[2].unwrap()
        });
        assert_eq!(out, 4);
    }

    #[test]
    fn timeout_returns_ok_when_fast() {
        let sim = Sim::new(1);
        let mut q = Quorum::new(1);
        q.push(delayed(&sim, 50, 9));
        let s = sim.clone();
        let r = sim.block_on(async move { timeout_at(&s, 1_000, &mut q).await });
        assert_eq!(r, Ok(()));
    }
}
