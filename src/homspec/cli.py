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
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import detector, interference, mapio, retrieval, zhf
from .config import ExperimentConfig
from .errors import ConfigError, DataFormatError, DegenerateMap, HomspecError
from .interference import CoincidenceMap, MapKind
from .spectra import JointSpectralAmplitude
from .vapor import spectral_phase


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


def _theory_map(cfg: ExperimentConfig, jsa: JointSpectralAmplitude) -> CoincidenceMap:
    cmap = interference.coincidence_probability_cosine(jsa, cfg.dispersion_model(), cfg.visibility)
    return interference.pixel_average(cmap, cfg.kernel_width)


def cmd_theory(args) -> int:
    cfg = _effective_config(args)
    model = cfg.dispersion_model()
    grid = cfg.grid()
    cmap = _theory_map(cfg, cfg.jsa())
    dphi = interference.phase_difference(model, grid.centers)
    profile = np.mod(spectral_phase(model, grid.centers), 2.0 * math.pi)
    out = _out_dir(args)

    mapio.write_map_csv(cmap.values, grid, out / "pc_map.csv")
    mapio.write_map_csv(dphi, grid, out / "phase_map.csv")
    with open(out / "phase_profile.csv", "w", encoding="utf-8") as fh:
        fh.write("lambda_nm,phase_mod_2pi\n")
        for row in zip(grid.centers_nm.tolist(), profile.tolist()):
            fh.write("%r,%r\n" % row)

    print(f"od = {model.od:.6g}, tau = {model.tau * 1e12:.4g} ps")
    print(f"coincidence total = {cmap.total():.6g}")
    print(f"wrote {out / 'pc_map.csv'}, {out / 'phase_map.csv'}, {out / 'phase_profile.csv'}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _effective_config(args)
    params = cfg.detection_params()
    jsa = cfg.jsa()
    marginals = interference.port_spectra(jsa)
    if cfg.kernel_width > 1:
        # The spectrometer blurs each photon, so the port spectra take the map's boxcar.
        box = interference.boxcar_matrix(jsa.grid.n_bins, cfg.kernel_width)
        marginals = tuple(box @ m for m in marginals)
    # Every check runs here, before frames.zhf is opened; the chunks are
    # drawn while the file is written.
    if args.uncorrelated:
        run = detector.simulate_uncorrelated_chunks(jsa.grid, marginals, params, args.frames)
    else:
        run = detector.simulate_chunks(_theory_map(cfg, jsa), marginals, params, args.frames)
    path = _out_dir(args) / "frames.zhf"
    n_events = zhf.write_frames(run, path)
    mean_photons = n_events / args.frames if args.frames else 0.0
    print(f"R = {params.repetitions} repetitions per frame")
    print(f"{args.frames} frames, {n_events} events, {mean_photons:.4g} photons/frame")
    print(f"wrote {path}")
    return 0


def cmd_estimate(args) -> int:
    counts = detector.EventCounts(zhf.read_blocks(args.frame_file))
    out = _out_dir(args)
    for name, cmap in zip(("raw", "accidental", "covariance"), counts.maps()):
        mapio.write_map_csv(cmap.values, cmap.grid, out / f"{name}.csv")
    events, pairs = counts.singles.sum(), counts.pairs.sum()
    print(f"{counts.n_frames} frames, {events} events, {pairs} coincidence pairs")
    print(f"wrote {out / 'raw.csv'}, {out / 'accidental.csv'}, {out / 'covariance.csv'}")
    return 0


def cmd_fit(args) -> int:
    cfg = _effective_config(args)
    values, grid = mapio.read_map_csv(args.map_file)
    try:
        cmap = CoincidenceMap(grid, values, MapKind(args.kind))
    except ValueError as exc:
        raise DataFormatError(f"{args.map_file}: {exc}") from exc

    result = retrieval.fit(cmap, cfg.jsa(), cfg.fit_config())
    out = _out_dir(args)

    report = dataclasses.asdict(result)
    with open(out / "fit_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    with open(out / "fit_report.txt", "w", encoding="utf-8") as fh:
        for key, val in report.items():
            if key == "param_sigma":
                fh.writelines(f"sigma_{name} = {v!r}\n" for name, v in sorted(val.items()))
            else:
                fh.write(f"{key} = {val!r}\n")

    print(f"od_hat = {result.od_hat:.6g} +- {result.param_sigma['od']:.3g}")
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

    def add_common(p, out_help="output directory", seed=False):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        if seed:  # only simulate draws with it, and write-config prints it
            p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", help=out_help)

    p = sub.add_parser("theory", help="write predicted coincidence and phase maps")
    add_common(p)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="run the camera Monte Carlo")
    add_common(p, seed=True)
    p.add_argument("--frames", type=int, default=100_000, help="number of camera frames")
    p.add_argument("--uncorrelated", action="store_true",
                   help="diagnostic generator with independent ports")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="histogram an event file into maps")
    p.add_argument("--out", help="output directory")  # the event file holds the run
    p.add_argument("frame_file", help="ZHF1 event file")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fit", help="fit od/visibility/delay to a map file")
    add_common(p)
    p.add_argument("map_file", help="map CSV file, as theory or estimate writes it")
    p.add_argument("--kind", choices=["covariance", "probability"],
                   default="covariance", help="how to interpret the map")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("write-config", help="print the effective configuration")
    add_common(p, out_help="output file (stdout when omitted)", seed=True)
    p.set_defaults(func=cmd_write_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Each warning is one stderr line; the filters, an "error" one included, stay as set.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
