// serve_openloop's machine, model and serving configuration, shared by the
// workload (serve.cpp) and the benchmark's own tests.
#pragma once

#include "bench.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

/// The 4-core / 1 MiB / 2-slice / 2-channel contention machine of
/// bench/ablation_saturation under `stack`.
SimConfig serve_machine(const Stack& stack);

/// llama3-70b with 2 KV heads x group 4: small KV per request.
llamcat::ModelShape serve_model();

/// One continuous layer without GEMV, budgeted SRF admission at a third of
/// the batch's peak KV, preemption, cold-block paging and kv_share.
llamcat::scenario::DecodePassConfig serve_pass_config(
    const llamcat::scenario::RequestBatch& batch, bool audit);

}  // namespace perfbench
