"""The public surface: each module's ``__all__`` is its API, and ``habdf``
re-exports all of it except ``records``, which exports four names."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

import habdf
from habdf import sim

MODULE_API = {
    "errors": {"HabdfError", "ContractViolationError", "DegenerateGeometryError",
               "InsufficientDetectorsError", "ConfigError", "RecordFormatError"},
    "experts": {"mahalanobis", "local_weight", "chi2_xi", "ExpertConfig", "ExpertReport",
                "Expert"},
    "fusion": {"adapt_rvv", "FusionConfig", "FusedEstimate", "FusionCenter", "Pipeline",
               "make_pipeline"},
    "kalman": {"GaussianState", "LinearModel", "kf_predict", "kf_update", "build_cv_model",
               "build_track_model"},
    "metrics": {"jaccard", "gt_distance", "success", "FrameEval", "ApproachSummary",
                "summarize"},
    "records": {"TrackRecord", "format_value", "write_csv", "read_csv_dicts", "read_track_csv",
                "write_track_csv", "read_box_csv", "read_columns", "load_config",
                "parse_config_text", "parse_grid", "scenario_from_config",
                "tracking_setup_from_config", "CONFIG_SCHEMA"},
    "sim": {"SecondOrderPlant", "plant_step", "steady_state", "run_plant", "setpoint_profile",
            "FaultProfile", "inject_faults", "PidGains", "PidState", "pid_step", "run_pan_loop",
            "SimScenario", "SimResult", "run_sim_experiment"},
    "voting": {"BoundingBox", "VoteConfig", "box_distance", "consensus_distance",
               "vote_weight"},
    "cli": {"main", "cmd_simulate", "cmd_fuse", "cmd_eval", "cmd_sweep"},
}
RECORDS_EXPORTS = {"TrackRecord", "load_config", "read_track_csv", "write_track_csv"}
EXPORTED = {name: RECORDS_EXPORTS if name == "records" else api
            for name, api in MODULE_API.items() if name != "cli"}


def test_each_module_keeps_its_all():
    for name, api in MODULE_API.items():
        module_all = importlib.import_module(f"habdf.{name}").__all__
        assert len(module_all) == len(set(module_all))
        assert set(module_all) == api, name


def test_package_all_is_the_53_exported_names_once_each():
    assert len(habdf.__all__) == len(set(habdf.__all__)) == 53
    assert set(habdf.__all__) == set().union(*EXPORTED.values())


def test_each_export_is_the_module_object():
    for name, api in EXPORTED.items():
        module = importlib.import_module(f"habdf.{name}")
        for attr in api:
            assert getattr(habdf, attr) is getattr(module, attr), f"{name}.{attr}"


def test_public_dir_is_the_exports_and_the_imported_modules():
    public = {n for n in dir(habdf) if not n.startswith("_")} - {"cli"}  # once imported
    assert public == set(habdf.__all__) | set(EXPORTED)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about as long to import as the rest of the package.
    src = os.path.dirname(os.path.dirname(habdf.__file__))
    code = "import sys, habdf.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"


def test_the_bench_seed_has_one_owner():
    # SimScenario.seed is the bench's seed; inject_faults takes one stream's seed.
    assert list(inspect.signature(sim.run_sim_experiment).parameters) == ["scenario"]
    assert list(inspect.signature(sim.inject_faults).parameters) == ["clean", "profile", "seed"]
    assert "seed" not in {f.name for f in dataclasses.fields(sim.FaultProfile)}
    assert "seed" in {f.name for f in dataclasses.fields(sim.SimScenario)}
