//! The per-layer probe sheet: each probe times the public functions of one
//! crate in isolation, so a change to that layer has a number to move
//! before any end-to-end metric does.
//!
//! The sheet does not depend on the workload; every traced run repeats it.
//! Probes run single-threaded unless stated and report the median of at
//! least [`MIN_BATCHES`] batches.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::core::{GapMap, Key, RepId, Value, Version};
use repdir::net::{serve, FaultPlan, LatencyModel, MsgKind, Network, NodeId, RpcClient};
use repdir::obs::Registry;
use repdir::rangelock::{KeyRange, LockMode, RangeLockTable};
use repdir::replica::codec::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use repdir::replica::{serve_rep, TransactionalRep};
use repdir::storage::{Backend, DurableState, SimDisk, Wal, WalRecord};
use repdir::txn::{TxnId, TxnManager};

use crate::cluster::{Cluster, Directory};
use crate::keys::{key_of, preload_slots, value, SLOTS};
use crate::stats::{median, percentile, SplitMix64};
use crate::trace::{breakdowns, Class, Kind, Tracer};

const MIN_BATCHES: usize = 20;

/// Entries in every storage-shaped probe's state.
const ENTRIES: u64 = 8192;

const CALL_TIMEOUT: Duration = Duration::from_secs(2);

/// A named result of the sheet.
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Median time per iteration, in ns, of `iteration(i)`: batches sized to a
/// fortieth of `budget`, run until the budget is spent and at least
/// [`MIN_BATCHES`] are in.
fn per_iter_ns(budget: Duration, mut iteration: impl FnMut(u64)) -> f64 {
    let mut next = 0u64;
    let mut batch = |iters: u64| {
        let start = Instant::now();
        for i in next..next + iters {
            iteration(i);
        }
        next += iters;
        start.elapsed()
    };
    let mut iters = 1u64;
    while batch(iters) < budget / 40 && iters < 1 << 24 {
        iters *= 2;
    }
    let start = Instant::now();
    let mut per_iter = Vec::new();
    while per_iter.len() < MIN_BATCHES || start.elapsed() < budget {
        per_iter.push(batch(iters).as_nanos() as f64 / iters as f64);
    }
    median(&per_iter)
}

/// Median of individually timed calls, in ns: at least [`MIN_BATCHES`]
/// samples, more until `budget` is spent.
fn p50_ns(budget: Duration, mut call: impl FnMut() -> Duration) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || start.elapsed() < budget {
        samples.push(call().as_nanos() as u64);
    }
    samples.sort_unstable();
    percentile(&samples, 0.5)
}

fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

fn slot_key(i: u64, odd: bool) -> Key {
    key_of((2 * (i % (SLOTS / 2))) + u64::from(odd))
}

/// A multiplicative walk over the even (preloaded) slots.
fn scattered_even(i: u64) -> Key {
    slot_key(i.wrapping_mul(0x9E37_79B9), false)
}

struct Sheet {
    seed: u64,
    budget: Duration,
    /// Samples of the three probes that cost 0.1 s or more each.
    slow_samples: u64,
    rng: SplitMix64,
    out: Vec<Probe>,
}

impl Sheet {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push(Probe { name, value, unit });
    }

    fn ns(&mut self, name: &'static str, iteration: impl FnMut(u64)) {
        let v = per_iter_ns(self.budget, iteration);
        self.put(name, v, "ns");
    }

    fn us(&mut self, name: &'static str, iteration: impl FnMut(u64)) {
        let v = per_iter_ns(self.budget, iteration) / 1e3;
        self.put(name, v, "us");
    }

    fn value(&mut self) -> Value {
        value(&mut self.rng)
    }

    fn codec(&mut self) {
        let txn = TxnId(7);
        let key = key_of(4242);
        let v = self.value();
        let lookup = Request::Lookup(txn, key.clone());
        self.ns("codec.lookup_req_ns", |_| {
            black_box(decode_request(&encode_request(black_box(&lookup))).expect("round trip"));
        });
        let mut map = GapMap::new();
        map.insert(&key, Version::new(3), v.clone())
            .expect("user key");
        let reply = Response::Lookup(map.lookup(&key));
        self.ns("codec.lookup_resp_ns", |_| {
            black_box(decode_response(&encode_response(black_box(&reply))).expect("round trip"));
        });
        let insert = Request::Insert(txn, key, Version::new(3), v.clone());
        self.ns("codec.insert_req_ns", |_| {
            black_box(decode_request(&encode_request(black_box(&insert))).expect("round trip"));
        });
        let batch = Request::Batch(
            (0..64)
                .map(|i| Request::Insert(txn, slot_key(i, true), Version::new(3), v.clone()))
                .collect(),
        );
        self.us("codec.batch64_us", |_| {
            black_box(decode_request(&encode_request(black_box(&batch))).expect("round trip"));
        });
    }

    fn net(&mut self) {
        let payload = vec![0xA5u8; 16];
        let echo_node = |i: u32| NodeId(10 + i);
        let net = Arc::new(Network::new(self.seed));
        let sink = net.register(NodeId(1));
        self.ns("net.send_recv_ns", |i| {
            net.send(NodeId(0), NodeId(1), MsgKind::Request(i), payload.clone());
            black_box(sink.recv_timeout(CALL_TIMEOUT).expect("delivered"));
        });
        let servers: Vec<_> = (0..3)
            .map(|i| serve(Arc::clone(&net), echo_node(i), |p| p.to_vec()))
            .collect();
        let rpc = RpcClient::new(Arc::clone(&net), NodeId(2));
        let echo = |rpc: &RpcClient, dst: NodeId| {
            timed(|| {
                black_box(rpc.call(dst, payload.clone(), CALL_TIMEOUT).expect("echo"));
            })
        };
        let v = p50_ns(self.budget, || echo(&rpc, echo_node(0))) / 1e3;
        self.put("net.rpc_echo_p50_us", v, "us");
        let v = p50_ns(self.budget, || {
            timed(|| {
                let requests = (0..3).map(|i| (echo_node(i), payload.clone())).collect();
                black_box(rpc.scatter(requests).gather(CALL_TIMEOUT));
            })
        }) / 1e3;
        self.put("net.rpc_scatter3_p50_us", v, "us");

        // Two callers, each with its own client and its own echo server:
        // what they share is the fabric (the mutexes `Network::send` takes).
        let rpc2 = RpcClient::new(Arc::clone(&net), NodeId(3));
        let round = self.budget / 4;
        let rates: Vec<f64> = (0..5)
            .map(|_| {
                let calls = AtomicU64::new(0);
                let start = Instant::now();
                std::thread::scope(|scope| {
                    for (client, dst) in [(&rpc, echo_node(0)), (&rpc2, echo_node(1))] {
                        let (calls, echo) = (&calls, &echo);
                        scope.spawn(move || {
                            while start.elapsed() < round {
                                echo(client, dst);
                                calls.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                });
                calls.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
            })
            .collect();
        self.put("net.rpc_echo_2clients_per_s", median(&rates), "1/s");

        net.set_fault_plan(FaultPlan {
            latency: LatencyModel::fixed(Duration::from_micros(500)),
            ..FaultPlan::default()
        });
        let rtt_us = p50_ns(self.budget, || echo(&rpc, echo_node(0))) / 1e3;
        self.put("net.delay_overshoot_us", rtt_us - 1000.0, "us");
        for server in servers {
            server.stop();
        }
    }

    fn rangelock(&mut self) {
        let wait = Duration::from_secs(1);
        let me = TxnId(1_000_000);
        let table = RangeLockTable::new();
        let lock_cycle = |table: &RangeLockTable, i: u64| {
            table
                .acquire(
                    me,
                    LockMode::Modify,
                    KeyRange::point(slot_key(i, true)),
                    wait,
                )
                .expect("no conflicting holder");
            table.release_all(me);
        };
        self.ns("rangelock.acquire_release_ns", |i| lock_cycle(&table, i));
        for holder in 0..64 {
            table
                .acquire(
                    TxnId(holder + 1),
                    LockMode::Lookup,
                    KeyRange::point(slot_key(holder * 97, false)),
                    wait,
                )
                .expect("lookup locks are compatible");
        }
        self.ns("rangelock.acquire_release_64held_ns", |i| {
            lock_cycle(&table, i)
        });

        // Hand-off: the holder releases while a second thread waits; the
        // sample is release → waiter granted.
        let table = RangeLockTable::new();
        let point = || KeyRange::point(key_of(1));
        let (holder, waiter) = (TxnId(1), TxnId(2));
        let (go, start_waiting) = mpsc::channel::<()>();
        let (granted_at, granted) = mpsc::channel::<Instant>();
        let v = std::thread::scope(|scope| {
            let (table, point) = (&table, &point);
            scope.spawn(move || {
                while start_waiting.recv().is_ok() {
                    table
                        .acquire(waiter, LockMode::Modify, point(), wait)
                        .expect("granted on release");
                    let at = Instant::now();
                    table.release_all(waiter);
                    granted_at.send(at).expect("holder alive");
                }
            });
            let v = p50_ns(self.budget, || {
                table
                    .acquire(holder, LockMode::Modify, point(), wait)
                    .expect("free between samples");
                go.send(()).expect("waiter alive");
                // Let the waiter block in `acquire`.
                std::thread::sleep(Duration::from_millis(1));
                let released = Instant::now();
                table.release_all(holder);
                granted
                    .recv()
                    .expect("waiter alive")
                    .saturating_duration_since(released)
            });
            drop(go);
            v
        });
        self.put("rangelock.handoff_us", v / 1e3, "us");
    }

    fn txn(&mut self) {
        // The manager keeps every finished transaction: start afresh now and
        // then so the probe's memory stays bounded.
        let mut mgr = TxnManager::new();
        self.ns("txn.begin_commit_ns", |i| {
            if i % (1 << 16) == 0 {
                mgr = TxnManager::new();
            }
            let id = mgr.begin();
            mgr.commit(id).expect("active");
        });
    }

    /// A durable state holding [`ENTRIES`] committed entries.
    fn loaded_state(&mut self, backend: Backend) -> (DurableState, Arc<SimDisk>) {
        let disk = Arc::new(SimDisk::new());
        let mut state = DurableState::with_backend(Arc::clone(&disk), backend);
        for (n, slot) in preload_slots(0..SLOTS, ENTRIES).enumerate() {
            let txn = TxnId(n as u64 + 1);
            state.begin(txn);
            state
                .insert(txn, &key_of(slot), Version::new(1), self.value())
                .expect("registered transaction");
            state.commit(txn);
        }
        (state, disk)
    }

    fn storage(&mut self) {
        let v = self.value();
        let record = WalRecord::Insert {
            txn: 7,
            key: key_of(4242),
            version: Version::new(3),
            value: v.clone(),
        };
        // A fresh disk every 4096 records keeps the log, and the copy each
        // sync makes, small.
        let mut wal = Wal::new(Arc::new(SimDisk::new()));
        self.ns("storage.wal_append_sync_ns", |i| {
            if i % 4096 == 0 {
                wal = Wal::new(Arc::new(SimDisk::new()));
            }
            wal.append(&record);
            wal.sync();
        });

        let backends = [
            (
                Backend::GapMap,
                "storage.durable_insert_commit_us",
                "storage.durable_lookup_ns",
            ),
            (
                Backend::GapBTree { order: 16 },
                "storage.btree_insert_commit_us",
                "storage.btree_lookup_ns",
            ),
        ];
        for (backend, insert_name, lookup_name) in backends {
            let (mut state, disk) = self.loaded_state(backend);
            if backend == Backend::GapMap {
                let ms = p50_ns(self.budget, || {
                    timed(|| {
                        black_box(DurableState::recover(Arc::clone(&disk)).expect("clean log"));
                    })
                }) / 1e6;
                self.put("storage.recover_8k_ms", ms, "ms");
            }
            self.ns(lookup_name, |i| {
                black_box(state.lookup(&scattered_even(i)));
            });
            self.us(insert_name, |i| {
                let txn = TxnId(1_000_000 + i);
                state.begin(txn);
                state
                    .insert(txn, &slot_key(i, true), Version::new(2 + i), v.clone())
                    .expect("registered transaction");
                state.commit(txn);
            });
        }
    }

    fn gapmap(&mut self) {
        let mut map = GapMap::new();
        for slot in preload_slots(0..SLOTS, ENTRIES) {
            map.insert(&key_of(slot), Version::new(1), self.value())
                .expect("user key");
        }
        self.ns("gapmap.lookup_ns", |i| {
            black_box(map.lookup(&scattered_even(i)));
        });
        let v = self.value();
        // Insert an odd key between two entries, then coalesce it away:
        // the storage half of a delete.
        self.ns("gapmap.insert_coalesce_ns", |i| {
            let slot = 2 * (i.wrapping_mul(0x9E37_79B9) % (SLOTS / 2 - 1));
            map.insert(&key_of(slot + 1), Version::new(2 + i), v.clone())
                .expect("user key");
            map.coalesce(&key_of(slot), &key_of(slot + 2), Version::new(3 + i))
                .expect("both boundaries exist");
        });
    }

    fn replica(&mut self) {
        let rep = TransactionalRep::with_disk(RepId(0), Arc::new(SimDisk::new()));
        let slots: Vec<u64> = preload_slots(0..SLOTS, ENTRIES).collect();
        for (n, chunk) in slots.chunks(256).enumerate() {
            let txn = TxnId(n as u64 + 1);
            rep.begin(txn).expect("available");
            for slot in chunk {
                rep.insert(txn, &key_of(*slot), Version::new(1), &self.value())
                    .expect("no conflicting holder");
            }
            rep.commit(txn).expect("available");
        }
        self.us("replica.rep_lookup_us", |i| {
            let txn = TxnId(1_000_000 + i);
            rep.begin(txn).expect("available");
            black_box(rep.lookup(txn, &scattered_even(i)).expect("no conflict"));
            rep.commit(txn).expect("available");
        });
        let v = self.value();
        self.us("replica.rep_insert_commit_us", |i| {
            let txn = TxnId(2_000_000_000 + i);
            rep.begin(txn).expect("available");
            rep.insert(txn, &slot_key(i, true), Version::new(2 + i), &v)
                .expect("no conflict");
            rep.commit(txn).expect("available");
        });

        // A holds a modify lock on k and commits 5 ms later; B's lookup of k
        // arrives in between. The ideal is ~5 ms. The serving thread blocks
        // inside B's lock wait, so A's commit queues behind it and B waits
        // out the lock timeout instead: the stall that keeps a `contended`
        // workload out of this benchmark.
        let net = Arc::new(Network::new(self.seed));
        let server = serve_rep(Arc::clone(&net), NodeId(10), Arc::clone(&rep));
        let a = RpcClient::new(Arc::clone(&net), NodeId(0));
        let b = RpcClient::new(Arc::clone(&net), NodeId(1));
        let call = |rpc: &RpcClient, req: Request| {
            let reply = rpc
                .call(NodeId(10), encode_request(&req), CALL_TIMEOUT)
                .expect("server reachable");
            decode_response(&reply).expect("well-formed reply")
        };
        let key = key_of(1);
        let waits_ms: Vec<f64> = (0..self.slow_samples)
            .map(|round| {
                let (ta, tb) = (TxnId(3_000_000_000 + round), TxnId(3_100_000_000 + round));
                call(&a, Request::Begin(ta));
                call(
                    &a,
                    Request::Insert(ta, key.clone(), Version::new(9), v.clone()),
                );
                call(&b, Request::Begin(tb));
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        std::thread::sleep(Duration::from_millis(5));
                        call(&a, Request::Commit(ta));
                    });
                    let wait = timed(|| {
                        black_box(call(&b, Request::Lookup(tb, key.clone())));
                    });
                    call(&b, Request::Abort(tb));
                    wait.as_secs_f64() * 1e3
                })
            })
            .collect();
        self.put("replica.conflict_wait_ms", median(&waits_ms), "ms");
        server.stop();
    }

    fn suite(&mut self) {
        let config = SuiteConfig::symmetric(3, 2, 2).expect("3-2-2 is valid");
        let mut suite = DirSuite::in_process(config, self.seed).expect("valid config");
        let entries: Vec<(Key, Value)> = preload_slots(0..SLOTS, ENTRIES)
            .map(|slot| (key_of(slot), self.value()))
            .collect();
        for chunk in entries.chunks(256) {
            suite.insert_many(chunk).expect("fresh keys");
        }
        self.us("suite.inproc_lookup_us", |i| {
            black_box(suite.lookup(&scattered_even(i)).expect("quorum up"));
        });
        let v = self.value();
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        let mut i = 0u64;
        let start = Instant::now();
        while inserts.len() < MIN_BATCHES || start.elapsed() < 2 * self.budget {
            let key = slot_key(i.wrapping_mul(0x9E37_79B9), true);
            i += 1;
            inserts
                .push(timed(|| drop(suite.insert(&key, &v).expect("fresh key"))).as_nanos() as u64);
            deletes
                .push(timed(|| drop(suite.delete(&key).expect("just inserted"))).as_nanos() as u64);
        }
        inserts.sort_unstable();
        deletes.sort_unstable();
        self.put(
            "suite.inproc_insert_us",
            percentile(&inserts, 0.5) / 1e3,
            "us",
        );
        self.put(
            "suite.inproc_delete_us",
            percentile(&deletes, 0.5) / 1e3,
            "us",
        );
    }

    /// Remote lookups through the benchmark's driver, traced: the
    /// single-member baseline, then 3-2-2 with the driver's own rounds.
    fn remote(&mut self) {
        const PRELOAD: u64 = 1024;
        for (members, quorum) in [(1u32, 1u32), (3, 2)] {
            let cluster = Cluster::build(self.seed, members, quorum, quorum, LatencyModel::ZERO);
            let mut dir = cluster.client(0);
            let mut tracer = Tracer::new(Instant::now(), Tracer::CAPACITY);
            let entries: Vec<(Key, Value)> = preload_slots(0..SLOTS, PRELOAD)
                .map(|slot| (key_of(slot), self.value()))
                .collect();
            for chunk in entries.chunks(256) {
                dir.insert_many(&mut tracer, chunk).expect("fresh keys");
            }
            tracer.set_enabled(true);
            let start = Instant::now();
            let mut i = 0u64;
            while i < 200 || start.elapsed() < 2 * self.budget {
                let key = &entries[(i.wrapping_mul(0x9E37_79B9) % PRELOAD) as usize].0;
                i += 1;
                let begin = Instant::now();
                tracer.begin_op(Class::Read, begin);
                let found = dir.lookup(&mut tracer, key).expect("quorum up");
                tracer.end_op(Instant::now());
                assert!(found.present, "preloaded key");
            }
            let ops = breakdowns(tracer.spans());
            let p50_us = |f: &dyn Fn(&crate::trace::OpBreakdown) -> u64| {
                let mut v: Vec<u64> = ops.iter().map(f).collect();
                v.sort_unstable();
                percentile(&v, 0.5) / 1e3
            };
            if members == 1 {
                self.put(
                    "suite.single_member_lookup_us",
                    p50_us(&|op| op.total_ns),
                    "us",
                );
            } else {
                self.put("suite.remote_lookup_us", p50_us(&|op| op.total_ns), "us");
                self.put("driver.begin_us", p50_us(&|op| op.under(Kind::Begin)), "us");
                self.put(
                    "suite.remote_lookup_call_us",
                    p50_us(&|op| op.under(Kind::Call)),
                    "us",
                );
                self.put(
                    "driver.commit_us",
                    p50_us(&|op| op.under(Kind::Commit)),
                    "us",
                );
                self.put("driver.self_us", p50_us(&|op| op.self_ns), "us");
            }
        }
    }

    fn obs_and_machine(&mut self) {
        let registry = Registry::new();
        self.ns("obs.span_ns", |_| {
            drop(black_box(registry.span("probe.span")))
        });
        self.us("machine.thread_scope3_us", |_| {
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {});
                }
            });
        });
        let ms = p50_ns(self.budget, || {
            timed(|| {
                let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
                for _ in 0..4_000_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                black_box(x);
            })
        }) / 1e6;
        self.put("machine.spin_ms", ms, "ms");
    }

    fn repair(&mut self) {
        let [small, large] = crate::workloads::catchup_probe(self.seed, self.slow_samples);
        self.put("repair.catchup_small_ms", small, "ms");
        self.put("repair.catchup_large_ms", large, "ms");
    }
}

/// Runs the whole sheet, spending about `budget` per timed probe and taking
/// `slow_samples` of each slow one.
pub fn run(seed: u64, budget: Duration, slow_samples: u64) -> Vec<Probe> {
    let mut sheet = Sheet {
        seed,
        budget,
        slow_samples,
        rng: SplitMix64::new(seed).fork(0x9B0BE),
        out: Vec::new(),
    };
    sheet.obs_and_machine();
    sheet.codec();
    sheet.net();
    sheet.rangelock();
    sheet.txn();
    sheet.storage();
    sheet.gapmap();
    sheet.replica();
    sheet.suite();
    sheet.remote();
    sheet.repair();
    sheet.out
}
