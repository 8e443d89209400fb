"""Workload sizes and set-up snippets, kept free of heavy imports.

The harness reads these without importing the package; the workload
modules receive their sizes as arguments.
"""

NAMES = ("ensemble", "clicks", "cli")

SIZES = {
    # shape of acceptance criterion 4; 2 chunks per kind keep both threads busy
    "ensemble": {"n_traces": 2048, "trace_len": 3125, "chunk_traces": 1024,
                 "threads": 2, "setup_reps": 5},
    # two 200 000-gate blocks of the click generator per round
    "clicks": {"sim_seconds": 8.0, "setup_reps": 5},
    # simulate at the default trace_len with 2 chunks of 256 traces
    "cli": {"n_traces": 512, "click_seconds": 1.0, "threads": 2, "setup_reps": 5,
            "importtime_reps": 3},
}

# gated_click_stream takes no thread count: the click path runs on the
# calling thread, one per clicks worker
CLICKS_THREADS = 1

# unit of work behind each workload's work_per_s, under the name used in
# the README's prediction table
WORK_UNITS = {"ensemble": ("traces_per_s", "traces/s"),
              "clicks": ("click_sim_s_per_s", "simulated s/s"),
              "cli": ("cli_commands_per_s", "commands/s")}

_TIMER = "import time\nt0 = time.perf_counter()\n{body}print(time.perf_counter() - t0)\n"


def setup_code(name, sizes):
    """Code timed in a fresh interpreter: the import plus what a run builds first.

    ensemble: SimConfig, FieldModel and DemodPlan; clicks: SimConfig and
    FieldModel (the click path builds no DemodPlan); cli: the CLI module.
    """
    if name == "cli":
        body = "import phonon_forge.cli\n"
    else:
        body = "import phonon_forge\nfrom phonon_forge import simulator\n"
        if name == "ensemble":
            body += (f"cfg = simulator.SimConfig(trace_len={sizes['trace_len']}, "
                     f"chunk_traces={sizes['chunk_traces']})\n"
                     "simulator.DemodPlan(cfg, simulator.FieldModel(cfg))\n")
        else:
            body += "simulator.FieldModel(simulator.SimConfig())\n"
    return _TIMER.format(body=body)
