//! Disaggregated prefill/decode serving — the related-work baseline
//! (§5: DistServe, Mooncake).
//!
//! Disaggregated inference dedicates separate GPU pools to prefill and
//! decode. Prefill workers process one request's prompt at a time
//! (latency-optimal, no decode interference); the resulting KV cache is
//! then *transferred* to a decode worker over the interconnect before
//! generation starts. Compared with chunked-prefill systems (and Shift
//! Parallelism), this eliminates prefill/decode interference at the cost
//! of (i) statically partitioned capacity and (ii) a per-request KV
//! transfer on the critical path.
//!
//! The `disagg_compare` bench quantifies the paper's §5 argument: Shift
//! Parallelism with chunked prefill achieves the interference-mitigation
//! benefits without paying either cost.

use crate::report::EngineReport;
use sp_metrics::{Dur, RequestRecord, SimTime};
use sp_parallel::{BatchWork, ChunkWork, ExecPlan, ExecutionModel, ParallelConfig};
use sp_workload::{Request, Trace};

/// Configuration of a disaggregated deployment on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisaggConfig {
    /// Number of prefill workers (each a `prefill_tp`-GPU TP group).
    pub prefill_workers: usize,
    /// TP degree of each prefill worker.
    pub prefill_tp: usize,
    /// Number of decode workers (each a `decode_tp`-GPU TP group).
    pub decode_workers: usize,
    /// TP degree of each decode worker.
    pub decode_tp: usize,
    /// Bandwidth available for KV-cache migration, bytes/s (a share of the
    /// node interconnect; the transfer contends with collectives).
    pub kv_transfer_bw: f64,
    /// Maximum decode sequences batched per worker iteration.
    pub max_decode_batch: usize,
}

impl DisaggConfig {
    /// The canonical 8-GPU split used in disaggregation papers: 4 GPUs of
    /// prefill (2 workers × TP=2), 4 GPUs of decode (1 worker × TP=4).
    pub fn half_and_half() -> DisaggConfig {
        DisaggConfig {
            prefill_workers: 2,
            prefill_tp: 2,
            decode_workers: 1,
            decode_tp: 4,
            kv_transfer_bw: 300e9,
            max_decode_batch: 256,
        }
    }

    /// Total GPUs consumed.
    pub fn total_gpus(&self) -> usize {
        self.prefill_workers * self.prefill_tp + self.decode_workers * self.decode_tp
    }
}

/// A disaggregated prefill/decode simulator.
///
/// # Examples
///
/// ```
/// use sp_cluster::NodeSpec;
/// use sp_engine::disagg::{DisaggConfig, DisaggregatedServer};
/// use sp_model::presets;
/// use sp_workload::synthetic;
///
/// let mut server = DisaggregatedServer::new(
///     NodeSpec::p5en_48xlarge(),
///     presets::qwen_32b(),
///     DisaggConfig::half_and_half(),
/// );
/// let report = server.run(&synthetic::uniform_batch(4, 1024, 16));
/// assert_eq!(report.records().len(), 4);
/// ```
#[derive(Debug)]
pub struct DisaggregatedServer {
    exec: ExecutionModel,
    config: DisaggConfig,
    /// Compiled pricing for the prefill workers' TP config — both stage
    /// configs are fixed for the server's lifetime, so they compile once.
    prefill_plan: ExecPlan,
    /// Compiled pricing for the decode workers' TP config.
    decode_plan: ExecPlan,
}

#[derive(Debug, Clone)]
struct DecodeSeq {
    request: Request,
    first_token: SimTime,
    context: u64,
    generated: u32,
}

impl DisaggregatedServer {
    /// Creates a server.
    ///
    /// # Panics
    ///
    /// Panics if the configuration uses more GPUs than the node has, or
    /// if the model's KV heads cannot be distributed across either
    /// stage's TP degree.
    pub fn new(
        node: sp_cluster::NodeSpec,
        model: sp_model::ModelConfig,
        config: DisaggConfig,
    ) -> DisaggregatedServer {
        assert!(
            config.total_gpus() <= node.gpu_count,
            "disagg config needs {} GPUs, node has {}",
            config.total_gpus(),
            node.gpu_count
        );
        let exec = ExecutionModel::new(node, model);
        let compile = |tp: usize, stage: &str| {
            exec.compile(&ParallelConfig::tensor(tp)).unwrap_or_else(|e| {
                panic!("cannot run {stage} TP={tp} on {}: {e}", exec.model().name)
            })
        };
        let prefill_plan = compile(config.prefill_tp, "prefill");
        let decode_plan = compile(config.decode_tp, "decode");
        DisaggregatedServer { exec, config, prefill_plan, decode_plan }
    }

    /// Time to prefill one request exclusively on a prefill worker
    /// (chunked internally at 8k like the monolithic engine).
    fn prefill_time(&self, input_tokens: u64) -> Dur {
        let mut done = 0;
        let mut total = Dur::ZERO;
        while done < input_tokens {
            let chunk = (input_tokens - done).min(8192);
            let batch =
                BatchWork::new(vec![ChunkWork::prefill(chunk, done, done + chunk == input_tokens)]);
            total += self.exec.price_planned(&self.prefill_plan, &batch).total();
            done += chunk;
        }
        total
    }

    /// KV migration time for a prefilled context.
    fn transfer_time(&self, input_tokens: u64) -> Dur {
        let bytes = input_tokens * self.exec.model().kv_bytes_per_token();
        Dur::from_secs(bytes as f64 / self.config.kv_transfer_bw)
    }

    /// Runs the trace through both stages and reports.
    pub fn run(&mut self, trace: &Trace) -> EngineReport {
        let mut report = EngineReport::new(Dur::from_secs(1.0));

        // --- Stage 1: prefill pool (greedy earliest-free worker). ---
        let mut worker_free = vec![SimTime::ZERO; self.config.prefill_workers];
        // (request, decode-arrival instant after KV transfer)
        let mut handoffs: Vec<(Request, SimTime)> = Vec::new();
        for &req in trace.requests() {
            let w = (0..worker_free.len())
                .min_by(|&a, &b| {
                    worker_free[a].as_secs().partial_cmp(&worker_free[b].as_secs()).unwrap()
                })
                .expect("at least one prefill worker");
            let start = worker_free[w].max(req.arrival);
            let done = start + self.prefill_time(u64::from(req.input_tokens));
            worker_free[w] = done;
            report.note_kv_utilization(0.0);
            let ready = done + self.transfer_time(u64::from(req.input_tokens));
            handoffs.push((req, ready));
        }
        handoffs.sort_by(|a, b| a.1.as_secs().partial_cmp(&b.1.as_secs()).unwrap());

        // --- Stage 2: decode pool (single pooled continuous batch per
        // worker; we model one logical decode pool with aggregate width
        // workers × max_decode_batch and per-worker iteration cost). ---
        let decode_tp = ParallelConfig::tensor(self.config.decode_tp);
        let capacity = self.config.decode_workers * self.config.max_decode_batch;
        let mut clock = SimTime::ZERO;
        let mut pending: std::collections::VecDeque<(Request, SimTime)> = handoffs.into();
        let mut active: Vec<DecodeSeq> = Vec::new();

        while !pending.is_empty() || !active.is_empty() {
            // Admit ready handoffs.
            while active.len() < capacity {
                match pending.front() {
                    Some(&(_, ready)) if ready <= clock => {
                        let (req, ready) = pending.pop_front().expect("front exists");
                        active.push(DecodeSeq {
                            request: req,
                            // First token is produced by prefill; it reaches
                            // the client once the KV handoff completes.
                            first_token: ready.max(clock),
                            context: u64::from(req.input_tokens),
                            generated: 1,
                        });
                    }
                    _ => break,
                }
            }
            if active.is_empty() {
                if let Some(&(_, ready)) = pending.front() {
                    clock = clock.max(ready);
                    continue;
                }
                break;
            }

            // One decode iteration across the pool: each worker takes an
            // equal slice; iteration time is the slowest worker's.
            let per_worker =
                active.len().div_ceil(self.config.decode_workers).min(self.config.max_decode_batch);
            let batch = BatchWork::new(
                active.iter().take(per_worker).map(|s| ChunkWork::decode(s.context)).collect(),
            );
            let dur = self.exec.price_planned(&self.decode_plan, &batch).total();
            clock += dur;

            let mut emitted = 0u64;
            for seq in &mut active {
                seq.generated += 1;
                seq.context += 1;
                emitted += 1;
            }
            report.note_iteration(clock, emitted, dur);
            report.note_config_usage(decode_tp, 1);

            let clock_now = clock;
            active.retain(|seq| {
                if seq.generated >= seq.request.output_tokens {
                    report.note_completion(RequestRecord {
                        request_id: seq.request.id,
                        class: seq.request.class,
                        arrival: seq.request.arrival,
                        first_token: seq.first_token,
                        finish: clock_now,
                        input_tokens: seq.request.input_tokens,
                        output_tokens: seq.request.output_tokens,
                    });
                    false
                } else {
                    true
                }
            });
        }

        // Attribute prefill tokens to the throughput ledger at handoff.
        for &req in trace.requests() {
            report.note_iteration(report.makespan(), u64::from(req.input_tokens), Dur::ZERO);
        }
        if !trace.is_empty() {
            let prefill_tp = ParallelConfig::tensor(self.config.prefill_tp);
            report.note_config_usage(prefill_tp, trace.len() as u64);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cluster::NodeSpec;
    use sp_model::presets;
    use sp_workload::synthetic;

    fn server() -> DisaggregatedServer {
        DisaggregatedServer::new(
            NodeSpec::p5en_48xlarge(),
            presets::llama_70b(),
            DisaggConfig::half_and_half(),
        )
    }

    #[test]
    fn half_and_half_uses_all_gpus() {
        assert_eq!(DisaggConfig::half_and_half().total_gpus(), 8);
    }

    #[test]
    fn completes_all_requests() {
        let mut s = server();
        let trace = synthetic::uniform_batch(6, 2048, 16);
        let report = s.run(&trace);
        assert_eq!(report.records().len(), 6);
        for r in report.records() {
            assert!(r.first_token >= r.arrival);
            assert!(r.finish > r.first_token);
        }
    }

    #[test]
    fn kv_transfer_delays_first_token() {
        // With a tiny transfer bandwidth, TTFT must grow by the KV size
        // over bandwidth.
        let node = NodeSpec::p5en_48xlarge();
        let fast = DisaggConfig { kv_transfer_bw: 900e9, ..DisaggConfig::half_and_half() };
        let slow = DisaggConfig { kv_transfer_bw: 1e9, ..DisaggConfig::half_and_half() };
        let trace = synthetic::single(8192, 8);
        let ttft = |cfg| {
            let mut s = DisaggregatedServer::new(node, presets::llama_70b(), cfg);
            let mut report = s.run(&trace);
            report.metrics_mut().ttft().median().unwrap()
        };
        let kv_bytes = 8192 * presets::llama_70b().kv_bytes_per_token();
        let expected_extra = kv_bytes as f64 / 1e9 - kv_bytes as f64 / 900e9;
        let measured_extra = ttft(slow) - ttft(fast);
        assert!(
            (measured_extra - expected_extra).abs() / expected_extra < 0.05,
            "extra TTFT {measured_extra:.3}s vs expected {expected_extra:.3}s"
        );
    }

    #[test]
    fn no_prefill_decode_interference() {
        // A lone decode stream's TPOT is unaffected by a concurrent
        // prefill-heavy request (the selling point of disaggregation).
        let mut s = server();
        let solo = s.run(&synthetic::single(1024, 64));
        let mut s2 = server();
        let mixed =
            s2.run(&synthetic::uniform_batch(2, 30_000, 64).merge(synthetic::single(1024, 64)));
        let tpot = |mut r: EngineReport| r.metrics_mut().tpot().min().unwrap();
        let solo_tpot = tpot(solo);
        let mixed_tpot = tpot(mixed);
        assert!(
            mixed_tpot < solo_tpot * 1.3,
            "decode interference detected: {mixed_tpot} vs {solo_tpot}"
        );
    }

    #[test]
    #[should_panic(expected = "GPUs")]
    fn oversubscribed_config_rejected() {
        let cfg = DisaggConfig {
            prefill_workers: 4,
            prefill_tp: 2,
            decode_workers: 2,
            decode_tp: 4,
            ..DisaggConfig::half_and_half()
        };
        let _ = DisaggregatedServer::new(NodeSpec::p5en_48xlarge(), presets::llama_70b(), cfg);
    }
}
