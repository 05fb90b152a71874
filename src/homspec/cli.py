"""Command-line pipeline: theory maps, frame simulation, estimation, fitting.

Subcommands:
  theory       write the predicted coincidence map and phase matrices
  simulate     run the camera Monte Carlo and write a ZHF1 event file
  estimate     turn an event file into raw/accidental/covariance maps
  fit          recover od, visibility and residual delay from a map
  write-config print the effective settings in canonical form

Exit codes: 0 success, 2 configuration error, 3 data-format error,
4 fit did not converge.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import detector, interference, mapio, retrieval, zhf
from .config import ExperimentConfig
from .errors import ConfigError, DataFormatError, DegenerateMap, HomspecError
from .interference import CoincidenceMap, InterferenceSettings, MapKind


def _effective_config(args) -> ExperimentConfig:
    cfg = config_mod.load_config(args.config) if args.config else ExperimentConfig()
    cfg = config_mod.apply_overrides(cfg, args.override or [])
    if getattr(args, "seed", None) is not None:
        cfg = config_mod.apply_overrides(cfg, [f"seed = {args.seed}"])
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _theory_map(cfg: ExperimentConfig) -> CoincidenceMap:
    jsa = cfg.jsa()
    model = cfg.dispersion_model()
    cmap = interference.coincidence_probability_cosine(
        jsa, model, InterferenceSettings(cfg.visibility)
    )
    return interference.pixel_average(cmap, cfg.kernel_width)


def cmd_theory(args) -> int:
    cfg = _effective_config(args)
    out = _out_dir(args)
    model = cfg.dispersion_model()
    grid = cfg.grid()
    cmap = _theory_map(cfg)
    dphi = interference.phase_difference(model, grid.centers)
    profile = retrieval.phase_profile_mod_2pi(model.od, model.tau, model.lambda0, grid)

    mapio.write_map_csv(cmap.values, grid, grid, out / "pc_map.csv")
    mapio.write_map_csv(dphi, grid, grid, out / "phase_map.csv")
    with open(out / "phase_profile.csv", "w", encoding="utf-8") as fh:
        fh.write("lambda_nm,phase_mod_2pi\n")
        for lam, phi in zip(grid.centers_nm, profile):
            fh.write(f"{float(lam)!r},{float(phi)!r}\n")
    if args.binary:
        mapio.write_map_binary(cmap.values, grid, grid, out / "pc_map.bin")
        mapio.write_map_binary(dphi, grid, grid, out / "phase_map.bin")

    print(f"od = {model.od:.6g}, tau = {model.tau * 1e12:.4g} ps")
    print(f"coincidence total = {cmap.total():.6g}")
    print(f"wrote {out / 'pc_map.csv'}, {out / 'phase_map.csv'}, {out / 'phase_profile.csv'}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _effective_config(args)
    if args.frames < 0:
        raise ConfigError(f"--frames must be non-negative, got {args.frames}")
    out = _out_dir(args)
    params = cfg.detection_params()
    jsa = cfg.jsa()
    marginals = interference.port_spectra(jsa)
    if args.uncorrelated:
        batch = detector.simulate_uncorrelated_frames(
            jsa.grid_s, jsa.grid_i, marginals, params, args.frames
        )
    else:
        batch = detector.simulate_frames(_theory_map(cfg), marginals, params, args.frames)
    path = out / "frames.zhf"
    zhf.write_frames(batch, path)
    mean_photons = batch.n_events / batch.n_frames if batch.n_frames else 0.0
    print(f"R = {params.repetitions} repetitions per frame")
    print(f"{batch.n_frames} frames, {batch.n_events} events, "
          f"{mean_photons:.4g} photons/frame")
    print(f"wrote {path}")
    return 0


def cmd_estimate(args) -> int:
    batch = zhf.read_frames(args.frame_file)
    out = _out_dir(args)
    if batch.n_frames == 0:
        # A frame-less file still yields well-formed (all-zero) matrices.
        maps = [np.zeros((batch.grid_plus.n_bins, batch.grid_minus.n_bins))] * 3
    else:
        maps = [cmap.values for cmap in detector.estimate_maps(batch)]
    for name, values in zip(("raw", "accidental", "covariance"), maps):
        mapio.write_map_csv(values, batch.grid_plus, batch.grid_minus, out / f"{name}.csv")
        if args.binary:
            mapio.write_map_binary(values, batch.grid_plus, batch.grid_minus, out / f"{name}.bin")
    total_pairs = float(np.sum(maps[0])) * batch.n_frames
    print(f"{batch.n_frames} frames, {total_pairs:.0f} coincidence pairs")
    print(f"wrote {out / 'raw.csv'}, {out / 'accidental.csv'}, {out / 'covariance.csv'}")
    return 0


def cmd_fit(args) -> int:
    cfg = _effective_config(args)
    out = _out_dir(args)
    path = Path(args.map_file)
    if path.suffix == ".bin":
        values, grid_p, grid_m = mapio.read_map_binary(path)
    else:
        values, grid_p, grid_m = mapio.read_map_csv(path)
    cmap = CoincidenceMap(grid_p, grid_m, values, MapKind(args.kind))

    jsa = cfg.jsa()
    if not (grid_p.is_close(jsa.grid_s) and grid_m.is_close(jsa.grid_i)):
        raise ConfigError(
            f"map grid ({grid_p.n_bins}x{grid_m.n_bins} bins) does not match the "
            f"configured grid ({jsa.grid_s.n_bins} bins); adjust grid_* settings"
        )
    result = retrieval.fit(cmap, jsa, cfg.fit_config())

    report = {
        "od_hat": result.od_hat,
        "visibility_hat": result.visibility_hat,
        "delay_fs": result.delay_fs,
        "cost": result.cost,
        "converged": result.converged,
        "iterations": result.iterations,
        "param_sigma": result.param_sigma,
        "od_visibility_correlation": result.od_visibility_correlation,
    }
    with open(out / "fit_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    with open(out / "fit_report.txt", "w", encoding="utf-8") as fh:
        for key in ("od_hat", "visibility_hat", "delay_fs", "cost", "converged", "iterations"):
            fh.write(f"{key} = {report[key]!r}\n")
        for key, val in sorted(result.param_sigma.items()):
            fh.write(f"sigma_{key} = {val!r}\n")
        fh.write(f"od_visibility_correlation = {result.od_visibility_correlation!r}\n")

    print(f"od_hat = {result.od_hat:.6g} +- {result.param_sigma.get('od', float('nan')):.3g}")
    print(f"visibility_hat = {result.visibility_hat:.4f}, delay = {result.delay_fs:.3f} fs")
    print(f"cost = {result.cost:.6g}, converged = {result.converged}")
    print(f"wrote {out / 'fit_report.json'}")
    if not result.converged:
        print("fit did not converge; reporting best iterate", file=sys.stderr)
        return 4
    return 0


def cmd_write_config(args) -> int:
    cfg = _effective_config(args)
    text = config_mod.format_config(cfg)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homspec",
        description="Spectrally-resolved two-photon interference pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help="output directory"):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", help=out_help)

    p = sub.add_parser("theory", help="write predicted coincidence and phase maps")
    add_common(p)
    p.add_argument("--binary", action="store_true", help="also write binary matrices")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="run the camera Monte Carlo")
    add_common(p)
    p.add_argument("--frames", type=int, default=100_000, help="number of camera frames")
    p.add_argument("--uncorrelated", action="store_true",
                   help="diagnostic generator with independent ports")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="histogram an event file into maps")
    add_common(p)
    p.add_argument("frame_file", help="ZHF1 event file")
    p.add_argument("--binary", action="store_true", help="also write binary matrices")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fit", help="fit od/visibility/delay to a map file")
    add_common(p)
    p.add_argument("map_file", help="matrix file (.csv or .bin)")
    p.add_argument("--kind", choices=["covariance", "probability"],
                   default="covariance", help="how to interpret the map")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("write-config", help="print the effective configuration")
    add_common(p, out_help="output file (stdout when omitted)")
    p.set_defaults(func=cmd_write_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, DegenerateMap) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except HomspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
