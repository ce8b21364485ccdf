//! Single-producer single-consumer one-shot channel for task wakeups.
//!
//! Used by simulated devices to deliver operation completions back to the
//! issuing task. Senders live with the work in flight (a fabric message
//! holds its reply's); receivers are awaited by protocol code. If the sender
//! is dropped without sending, the receiver resolves to `None`; a device
//! that must look silent instead (a crashed memory node) keeps the sender.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Inner<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_alive: bool,
}

/// Sending half of a one-shot channel.
pub struct OneshotSender<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Receiving half of a one-shot channel; a future yielding `Option<T>`.
pub struct OneshotReceiver<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Creates a connected one-shot channel pair.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let inner = Rc::new(RefCell::new(Inner {
        value: None,
        waker: None,
        sender_alive: true,
    }));
    (
        OneshotSender {
            inner: Rc::clone(&inner),
        },
        OneshotReceiver { inner },
    )
}

impl<T> OneshotSender<T> {
    /// Delivers `value` and wakes the receiver. Consumes the sender.
    pub fn send(self, value: T) {
        let mut inner = self.inner.borrow_mut();
        inner.value = Some(value);
        if let Some(w) = inner.waker.take() {
            w.wake();
        }
        // `Drop` below will mark the sender dead; the value is already in.
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.sender_alive = false;
        if inner.value.is_none() {
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = self.inner.borrow_mut();
        if let Some(v) = inner.value.take() {
            return Poll::Ready(Some(v));
        }
        if !inner.sender_alive {
            return Poll::Ready(None);
        }
        inner.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[test]
    fn value_delivered_across_event() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        sim.schedule_after(500, move |_| tx.send(7));
        let s = sim.clone();
        let got = sim.block_on(async move {
            let v = rx.await;
            (v, s.now())
        });
        assert_eq!(got, (Some(7), 500));
    }

    #[test]
    fn dropped_sender_resolves_none() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        sim.schedule_after(200, move |_| drop(tx));
        let got = sim.block_on(rx);
        assert_eq!(got, None);
    }

    #[test]
    fn send_before_poll_is_immediate() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<&'static str>();
        tx.send("hi");
        assert_eq!(sim.block_on(rx), Some("hi"));
    }
}
