//! Std-only stand-in for the subset of `crossbeam` the product crates use:
//! multi-producer multi-consumer `channel::{bounded, unbounded}` with
//! disconnect semantics (the serve layer's exec pool shuts down on them).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Signalled when an item arrives or the last sender leaves.
        ready: Condvar,
        /// Signalled when a bounded queue gains room or the last receiver leaves.
        room: Condvar,
    }

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap))
    }

    impl<T> Sender<T> {
        /// Blocks while a bounded queue is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if st.cap.is_none_or(|cap| st.queue.len() < cap) {
                    st.queue.push_back(value);
                    self.0.ready.notify_one();
                    return Ok(());
                }
                st = self.0.room.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if st.cap.is_some_and(|cap| st.queue.len() >= cap) {
                return Err(TrySendError::Full(value));
            }
            st.queue.push_back(value);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until an item arrives; errors once the queue is empty and
        /// every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.0.room.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match st.queue.pop_front() {
                Some(v) => {
                    self.0.room.notify_one();
                    Ok(v)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn is_empty(&self) -> bool {
            self.0.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.0.room.notify_all();
            }
        }
    }
}
