//! The shard host: a standing daemon that executes rungs over TCP.
//!
//! `edgetune shard-host --listen ADDR` runs a [`ShardHost`]: an accept
//! loop that gives every coordinator connection its own session. A
//! session opens with the [`edgetune_net`] handshake (protocol magic,
//! version, study seed, and the serialised [`BackendSpec`] as metadata,
//! validated up front so a bad spec is rejected with a reason before
//! any task flows), then speaks exactly the pipe worker's frame
//! vocabulary: [`ShardTask`] in, [`ShardHeartbeat`]s and one
//! [`ShardResultMsg`] per task out.
//!
//! Two disciplines distinguish a host from a pipe worker:
//!
//! - **Bounded queues.** Tasks park in a per-session [`BoundedQueue`]
//!   between the socket reader and the executor; overflow is rejected
//!   with a structured error, never buffered without bound.
//! - **Idempotent rungs.** Results are cached under their [`RungKey`]
//!   in a host-global LRU-ish cache *before* they are sent. A
//!   coordinator that lost the session mid-result reconnects and
//!   resends the same key; the host replays the cached measurements
//!   instead of executing the rung twice.
//!
//! Chaos travels in the task exactly as it does to a pipe worker:
//! `Kill` takes the whole host process down (the SIGKILL-the-daemon
//! scenario the coordinator's fallback ladder must absorb), `Panic` is
//! caught per task and surfaced as a structured error frame, `Hang`
//! sleeps the session's executor until the coordinator's heartbeat
//! deadline gives up on it.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use edgetune_net::{accept_hello, BoundedQueue, FramedTcp, NetError, QueuePushError};
use edgetune_runtime::frame::FrameKind;

use crate::backend::BackendSpec;
use crate::fabric::protocol::{decode, encode, RungKey, ShardResultMsg, ShardTask, WorkerFailure};
use crate::fabric::worker::execute_task;

/// The CLI subcommand that turns the binary into a shard host.
pub const HOST_SUBCOMMAND: &str = "shard-host";

/// Per-session work queue bound: how many tasks one coordinator session
/// may park on the host before pushes are rejected.
const SESSION_QUEUE_CAP: usize = 16;

/// Host-global result cache bound (entries). FIFO eviction — reconnect
/// resends arrive promptly, so only recent rungs need to be replayable.
const RESULT_CACHE_CAP: usize = 64;

/// Supervision counters a host accumulates across every session. All
/// loads/stores are relaxed — the counters are diagnostics, not
/// synchronisation.
#[derive(Debug, Default)]
struct HostCounters {
    sessions: AtomicU64,
    rejects: AtomicU64,
    tasks_executed: AtomicU64,
    cache_hits: AtomicU64,
    queue_rejections: AtomicU64,
}

/// A point-in-time snapshot of a host's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostStats {
    /// Sessions whose handshake was accepted.
    pub sessions: u64,
    /// Connections turned away at the handshake (wrong magic/version,
    /// undecodable hello or backend spec).
    pub rejects: u64,
    /// Tasks actually measured (cache hits excluded).
    pub tasks_executed: u64,
    /// Tasks answered from the idempotency cache.
    pub cache_hits: u64,
    /// Task pushes refused because a session queue was full.
    pub queue_rejections: u64,
}

/// The keyed result cache making reconnect-and-resend idempotent.
struct ResultCache {
    entries: HashMap<RungKey, ShardResultMsg>,
    order: VecDeque<RungKey>,
}

impl ResultCache {
    fn new() -> Self {
        ResultCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &RungKey) -> Option<ShardResultMsg> {
        self.entries.get(key).cloned()
    }

    fn insert(&mut self, key: RungKey, result: ShardResultMsg) {
        if self.entries.insert(key, result).is_none() {
            self.order.push_back(key);
            if self.order.len() > RESULT_CACHE_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.entries.remove(&evicted);
                }
            }
        }
    }
}

/// State shared between the accept loop, every session, and the
/// owner's [`HostHandle`].
struct HostShared {
    counters: HostCounters,
    cache: Mutex<ResultCache>,
    stop: AtomicBool,
}

impl HostShared {
    fn stats(&self) -> HostStats {
        HostStats {
            sessions: self.counters.sessions.load(Ordering::Relaxed),
            rejects: self.counters.rejects.load(Ordering::Relaxed),
            tasks_executed: self.counters.tasks_executed.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            queue_rejections: self.counters.queue_rejections.load(Ordering::Relaxed),
        }
    }
}

/// A bound-but-not-yet-serving shard host.
pub struct ShardHost {
    listener: TcpListener,
    shared: Arc<HostShared>,
}

impl ShardHost {
    /// Binds the listener. `--listen 127.0.0.1:0` style addresses work:
    /// the kernel-chosen port is readable via
    /// [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(ShardHost {
            listener: TcpListener::bind(addr)?,
            shared: Arc::new(HostShared {
                counters: HostCounters::default(),
                cache: Mutex::new(ResultCache::new()),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    ///
    /// # Errors
    ///
    /// The socket's address lookup failure, verbatim.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the calling thread — the CLI entry point.
    ///
    /// # Errors
    ///
    /// Only a failure to read the bound address; individual connection
    /// errors are logged to stderr and survived.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        // The one stdout line, and a parseable one: test harnesses and
        // scripts read the kernel-assigned port from it.
        println!("shard-host listening on {addr}");
        self.accept_loop();
        Ok(())
    }

    /// Serves on a background thread and returns a handle exposing the
    /// address, live counters, and shutdown.
    ///
    /// In-process hosts are for tests and benchmarks of the *happy*
    /// path only: a task carrying `ChaosAction::Kill` takes down the
    /// whole process, which in-process means the test itself. Kill
    /// scenarios must run the host as a child process via the
    /// `shard-host` subcommand.
    ///
    /// # Errors
    ///
    /// Only a failure to read the bound address.
    pub fn spawn(self) -> io::Result<HostHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.accept_loop());
        Ok(HostHandle {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    fn accept_loop(self) {
        for accepted in self.listener.incoming() {
            if self.shared.stop.load(Ordering::Relaxed) {
                return;
            }
            match accepted {
                Ok(stream) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || serve_session(stream, &shared));
                }
                Err(e) => eprintln!("shard-host: accept failed: {e}"),
            }
        }
    }
}

/// A running background host (see [`ShardHost::spawn`]).
pub struct HostHandle {
    addr: SocketAddr,
    shared: Arc<HostShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HostHandle {
    /// The address coordinators should dial.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    #[must_use]
    pub fn stats(&self) -> HostStats {
        self.shared.stats()
    }

    /// Stops the accept loop and joins it. Sessions already in flight
    /// drain on their own threads.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // The loop only observes the flag on its next accept; a throwaway
        // connection wakes it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for HostHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one coordinator session to completion: handshake, validate
/// the spec, then pump tasks reader → queue → executor until the socket
/// closes.
fn serve_session(stream: TcpStream, shared: &Arc<HostShared>) {
    let conn = match FramedTcp::from_stream(stream) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("shard-host: session setup failed: {e}");
            return;
        }
    };
    let mut conn = conn;
    // Count the reject before the peer reads its verdict: a peer that
    // has seen the rejection must find it in the host's stats.
    let hello = match accept_hello(&mut conn, |reason| {
        shared.counters.rejects.fetch_add(1, Ordering::Relaxed);
        eprintln!("shard-host: rejected a peer: {reason}");
    }) {
        Ok(hello) => hello,
        Err(NetError::Rejected(_)) => return,
        Err(e) => {
            eprintln!("shard-host: handshake failed: {e}");
            return;
        }
    };
    // The hello's metadata must be a decodable backend spec: a
    // coordinator shipping a vocabulary this host cannot rebuild is
    // turned away with a reason now, not a decode failure mid-rung.
    if let Err(e) = serde_json::from_str::<BackendSpec>(&hello.meta) {
        shared.counters.rejects.fetch_add(1, Ordering::Relaxed);
        let failure = WorkerFailure {
            message: format!("undecodable backend spec in hello: {e}"),
        };
        let _ = conn.send(FrameKind::Error, &encode(&failure));
        conn.shutdown();
        return;
    }
    shared.counters.sessions.fetch_add(1, Ordering::Relaxed);
    eprintln!(
        "shard-host: session open (study seed {}, peer {})",
        hello.study_seed,
        conn.peer_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string())
    );

    let queue = Arc::new(BoundedQueue::<ShardTask>::new(SESSION_QUEUE_CAP));
    // The executor writes heartbeats and results; the reader writes
    // overflow errors. Framed writes must not tear, hence the mutex
    // around the send half.
    let writer = Arc::new(Mutex::new(conn));
    let executor = {
        let queue = Arc::clone(&queue);
        let writer = Arc::clone(&writer);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || execute_session_tasks(&queue, &writer, &shared))
    };

    let mut receiver = match writer.lock().expect("writer mutex poisoned").split_recv() {
        Ok(receiver) => receiver,
        Err(e) => {
            eprintln!("shard-host: splitting session socket failed: {e}");
            queue.close();
            let _ = executor.join();
            return;
        }
    };
    loop {
        match receiver.recv() {
            Ok(Some(frame)) if frame.kind == FrameKind::Task => {
                let task: ShardTask = match decode(&frame.payload) {
                    Ok(task) => task,
                    Err(e) => {
                        send_error(&writer, format!("undecodable task: {e}"));
                        break;
                    }
                };
                match queue.push(task) {
                    Ok(()) => {}
                    Err(QueuePushError::Full) => {
                        shared
                            .counters
                            .queue_rejections
                            .fetch_add(1, Ordering::Relaxed);
                        send_error(
                            &writer,
                            format!("work queue full ({SESSION_QUEUE_CAP} tasks queued)"),
                        );
                        break;
                    }
                    Err(QueuePushError::Closed) => break,
                }
            }
            Ok(Some(frame)) => {
                send_error(&writer, format!("unexpected {:?} frame", frame.kind));
                break;
            }
            // Clean close, torn frame, reset — all end the session; the
            // executor drains what was queued and exits.
            Ok(None) | Err(_) => break,
        }
    }
    queue.close();
    let _ = executor.join();
    writer.lock().expect("writer mutex poisoned").shutdown();
}

/// The session executor: pops tasks, answers cached keys, measures the
/// rest, caches keyed results before sending them.
fn execute_session_tasks(
    queue: &BoundedQueue<ShardTask>,
    writer: &Arc<Mutex<FramedTcp>>,
    shared: &Arc<HostShared>,
) {
    while let Some(task) = queue.pop() {
        if let Some(key) = task.key {
            let cached = shared.cache.lock().expect("cache mutex poisoned").get(&key);
            if let Some(result) = cached {
                shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "shard-host: replaying cached rung (study {}, bracket {}, rung {}, shard {})",
                    key.study, key.bracket, key.rung, key.shard
                );
                if send_frame(writer, FrameKind::Result, &encode(&result)).is_err() {
                    return;
                }
                continue;
            }
        }
        // A panicking task (chaos or a genuine bug) must not take the
        // session down silently: catch it, report it as a structured
        // error, and end the session so the coordinator retries
        // immediately instead of waiting out its deadline.
        let measured = catch_unwind(AssertUnwindSafe(|| {
            execute_task(&task, |heartbeat| {
                send_frame(writer, FrameKind::Heartbeat, &encode(&heartbeat))
            })
        }));
        let result = match measured {
            Ok(Ok(result)) => result,
            Ok(Err(_dead_socket)) => return,
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                send_error(writer, format!("task execution panicked: {what}"));
                return;
            }
        };
        shared
            .counters
            .tasks_executed
            .fetch_add(1, Ordering::Relaxed);
        // Cache first, send second: if the send dies the rung is still
        // replayable for the reconnect that follows.
        if let Some(key) = task.key {
            shared
                .cache
                .lock()
                .expect("cache mutex poisoned")
                .insert(key, result.clone());
        }
        if send_frame(writer, FrameKind::Result, &encode(&result)).is_err() {
            return;
        }
    }
}

fn send_frame(
    writer: &Arc<Mutex<FramedTcp>>,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), String> {
    writer
        .lock()
        .expect("writer mutex poisoned")
        .send(kind, payload)
        .map_err(|e| format!("sending {kind:?} frame: {e}"))
}

fn send_error(writer: &Arc<Mutex<FramedTcp>>, message: String) {
    let failure = WorkerFailure { message };
    let _ = send_frame(writer, FrameKind::Error, &encode(&failure));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SimTrainingBackend, TrainingBackend};
    use crate::engine::coordinator::ShardPlan;
    use crate::fabric::protocol::{RungScope, TaskTrial};
    use edgetune_net::{client_hello, Hello};
    use edgetune_tuner::budget::TrialBudget;
    use edgetune_tuner::space::Config;
    use edgetune_util::rng::SeedStream;
    use edgetune_util::units::Seconds;
    use edgetune_workloads::catalog::{Workload, WorkloadId};

    fn backend() -> SimTrainingBackend {
        SimTrainingBackend::new(Workload::by_id(WorkloadId::Ic), SeedStream::new(5))
    }

    fn sample_trials(n: u64) -> Vec<(u64, Config, TrialBudget)> {
        let space = backend().search_space();
        (0..n)
            .map(|id| {
                (
                    id,
                    space.sample(&mut SeedStream::new(6).rng(&format!("trial-{id}"))),
                    TrialBudget::new(2.0, 1.0),
                )
            })
            .collect()
    }

    fn task_with_key(trials: &[(u64, Config, TrialBudget)], key: Option<RungKey>) -> ShardTask {
        ShardTask {
            attempt: 1,
            plan: ShardPlan {
                shard: 0,
                start: 0,
                len: trials.len(),
            },
            spec: backend().process_spec().unwrap(),
            now: Seconds::ZERO,
            trials: trials
                .iter()
                .map(|(id, config, budget)| TaskTrial {
                    id: *id,
                    config: config.clone(),
                    budget: *budget,
                })
                .collect(),
            chaos: None,
            key,
        }
    }

    fn connect(handle: &HostHandle) -> FramedTcp {
        let mut conn =
            FramedTcp::connect(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
        let spec = serde_json::to_string(&backend().process_spec().unwrap()).unwrap();
        client_hello(&mut conn, &Hello::new(11, spec)).unwrap();
        conn
    }

    fn recv_result(conn: &mut FramedTcp) -> ShardResultMsg {
        loop {
            let frame = conn.recv().unwrap().expect("session stays open");
            match frame.kind {
                FrameKind::Heartbeat => continue,
                FrameKind::Result => return decode(&frame.payload).unwrap(),
                other => panic!("unexpected {other:?} frame"),
            }
        }
    }

    #[test]
    fn host_executes_a_task_and_streams_heartbeats() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let trials = sample_trials(3);
        let mut conn = connect(&handle);
        conn.send(FrameKind::Task, &encode(&task_with_key(&trials, None)))
            .unwrap();
        let result = recv_result(&mut conn);
        assert_eq!(result.measurements.len(), 3);
        conn.shutdown();
        handle.shutdown();
        let stats = handle.stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.tasks_executed, 1);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn resending_a_keyed_task_replays_the_cached_result() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let trials = sample_trials(2);
        let key = RungScope {
            study: 11,
            bracket: 0,
            rung: 1,
        }
        .key_for(0);
        let task = task_with_key(&trials, Some(key));

        let mut first = connect(&handle);
        first.send(FrameKind::Task, &encode(&task)).unwrap();
        let first_result = recv_result(&mut first);
        // Simulate a lost session: drop without a clean goodbye, then
        // reconnect and resend the same keyed task.
        first.shutdown();
        drop(first);

        let mut second = connect(&handle);
        second.send(FrameKind::Task, &encode(&task)).unwrap();
        let second_result = recv_result(&mut second);
        assert_eq!(first_result, second_result);

        second.shutdown();
        handle.shutdown();
        let stats = handle.stats();
        assert_eq!(stats.tasks_executed, 1, "the rung must execute once");
        assert_eq!(stats.cache_hits, 1, "the resend must be a replay");
    }

    #[test]
    fn wrong_version_peer_is_rejected_and_counted() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let mut conn =
            FramedTcp::connect(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
        let mut hello = Hello::new(11, "{}");
        hello.version += 1;
        let err = client_hello(&mut conn, &hello).unwrap_err();
        assert!(matches!(err, NetError::Rejected(r) if r.contains("version")));
        handle.shutdown();
        assert_eq!(handle.stats().rejects, 1);
        assert_eq!(handle.stats().sessions, 0);
    }

    #[test]
    fn undecodable_spec_in_hello_is_rejected_with_a_reason() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let mut conn =
            FramedTcp::connect(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
        client_hello(&mut conn, &Hello::new(11, "not a backend spec")).unwrap();
        let frame = conn.recv().unwrap().expect("an error frame");
        assert_eq!(frame.kind, FrameKind::Error);
        let failure: WorkerFailure = decode(&frame.payload).unwrap();
        assert!(failure.message.contains("backend spec"));
        handle.shutdown();
        assert_eq!(handle.stats().rejects, 1);
    }

    #[test]
    fn result_cache_evicts_oldest_beyond_capacity() {
        let mut cache = ResultCache::new();
        let scope = RungScope {
            study: 1,
            bracket: 0,
            rung: 0,
        };
        for shard in 0..=RESULT_CACHE_CAP {
            cache.insert(
                scope.key_for(shard),
                ShardResultMsg {
                    shard,
                    measurements: Vec::new(),
                },
            );
        }
        assert!(cache.get(&scope.key_for(0)).is_none(), "oldest evicted");
        assert!(cache.get(&scope.key_for(RESULT_CACHE_CAP)).is_some());
        assert_eq!(cache.entries.len(), RESULT_CACHE_CAP);
    }
}
