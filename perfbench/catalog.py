"""Names and units of every metric the benchmark prints.

Shared by the workload process, which prints them, and the launcher's
smoke mode, which checks that each one was printed. Pure Python, so the
launcher can import it before it pins the BLAS thread count.
"""

WORKLOADS = ("repro-small-batch", "weigh-1e5", "csv-large-batch")

# Measured with tracing off.
END_TO_END = {
    "setup_s": "s",  # import plus input generation, median of several set-ups
    "wall_s": "s",  # one timed pass of the workload, median over passes
    "wall_rel": "ratio",  # a pass's wall time / calibration time, median over passes
    "train_samples_per_s": "1/s",  # sum of epochs x n_train per pass / wall_s
    "weigh_rows_per_s": "1/s",  # rows weighted per pass (x2 for l1 and l2) / wall_s
    "peak_rss_mb": "MB",  # ru_maxrss of the workload process
    "fail_rate": "ratio",  # failed or wrong-output ops / ops attempted
    "mae_ratio": "ratio",  # weighted-l2 / unweighted test MAE, synth-1d rows
    "gamma_auc": "ratio",  # ROC-AUC of l2 gamma ranking the corrupted rows
}

# Measured with tracing on; values are per pass (plus the set-up's share).
PER_LAYER = {
    "models.train_s": "s",
    "models.train_calls": "count",
    "models.sgd_steps": "count",
    "models.us_per_step": "us",
    "models.train_self_s": "s",
    "models.expand_s": "s",
    "models.predict_s": "s",
    "models.save_load_s": "s",
    "models.basis_bytes": "bytes",
    "models.self_s": "s",
    "models.calls": "count",
    "losses.value_grad_s": "s",
    "losses.value_grad_calls": "count",
    "grid.select_lambda_s": "s",
    "grid.fit_grid_s": "s",
    "grid.fit_grid_calls": "count",
    "grid.compute_weights_s": "s",
    "grid.fingerprint_s": "s",
    "grid.fingerprint_calls": "count",
    "grid.nonempty_cells": "count",
    "grid.weight_ess_ratio": "ratio",
    "grid.export_s": "s",
    "grid.self_s": "s",
    "grid.calls": "count",
    "data.generate_s": "s",
    "data.split_s": "s",
    "data.normalize_s": "s",
    "data.load_csv_s": "s",
    "data.load_csv_rows": "count",
    "data.self_s": "s",
    "data.calls": "count",
    "metrics.eval_s": "s",
    "metrics.calls": "count",
    "cli.self_s": "s",
    "cli.main_calls": "count",
    "trace.overhead_s": "s",
}

# Counts derived from call arguments or array sizes rather than counted.
COMPUTED = {"models.sgd_steps", "models.basis_bytes"}
