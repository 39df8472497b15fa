"""The program side of a benchmark run, started as a child process.

``train`` fits the workload's model with ``Trainer.fit`` for a fixed
number of epochs (early stopping off), saves the weights the server
will load, and writes epoch wall times, the final loss and the peak RSS
to a JSON file::

    python loadbench/program.py train --dataset synthetic --model lasagne \\
        --aggregator weighted --layers 5 --epochs 20 --seed 1 \\
        --weights w.npz --out train.json [--trace-out layers.json]

``serve`` runs ``python -m repro serve`` with the layer wrappers and the
``OpProfiler`` installed, and dumps what they recorded when the server
has drained (SIGTERM)::

    python loadbench/program.py serve --trace-out layers.json -- \\
        serve synthetic --model lasagne ...

The untraced run starts ``python -m repro serve`` directly; ``train``
without ``--trace-out`` installs nothing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from loadbench.layers import LayerRecorder, install, op_summary  # noqa: E402

DATASET_SEED = 0  # every process builds the same graph; the run seed varies the rest


def build_model(name: str, aggregator: str, layers: int, graph, hp, seed: int):
    """The model ``python -m repro serve`` builds for the same flags."""
    from repro.core import Lasagne
    from repro.models import build_model as build_baseline

    if name == "lasagne":
        return Lasagne(
            graph.num_features, hp.hidden, graph.num_classes,
            num_layers=layers, aggregator=aggregator,
            dropout=hp.dropout, fm_rank=hp.fm_rank, seed=seed,
        )
    return build_baseline(
        name, graph.num_features, graph.num_classes,
        hidden=hp.hidden, num_layers=layers, dropout=hp.dropout, seed=seed,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _train(args: argparse.Namespace) -> int:
    recorder = profiler = None
    if args.trace_out:
        from repro.obs import OpProfiler

        recorder = LayerRecorder()
        install(recorder)
        profiler = OpProfiler()

    from repro import nn
    from repro.datasets import load_dataset
    from repro.training import TrainConfig, Trainer, hyperparams_for

    graph = load_dataset(args.dataset, scale=args.scale, seed=DATASET_SEED)
    hp = hyperparams_for(args.dataset)
    model = build_model(args.model, args.aggregator, args.layers, graph, hp, args.seed)
    config = TrainConfig(
        lr=hp.lr, weight_decay=hp.weight_decay,
        epochs=args.epochs, patience=args.epochs, seed=args.seed,
    )
    ends = []  # monotonic end of every epoch, evaluation included
    result = Trainer(config).fit(
        model, graph, profiler=profiler,
        epoch_callback=lambda epoch, _model: ends.append(time.monotonic()),
    )
    nn.save_module(model, args.weights)
    final_loss = float(result.train_losses[-1])
    report = {
        "setup_end": ends[0],
        "epoch_s": [b - a for a, b in zip(ends, ends[1:])],
        "final_loss": final_loss,
        "final_loss_hex": final_loss.hex(),
        "peak_rss_mb": peak_rss_mb(),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    if recorder is not None:
        recorder.dump(args.trace_out, ops=op_summary(profiler))
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.obs import OpProfiler

    recorder = LayerRecorder()
    install(recorder)
    profiler = OpProfiler()
    profiler.enable()
    from repro.__main__ import main

    try:
        return main(args.repro_args)
    finally:
        profiler.disable()
        recorder.dump(args.trace_out, ops=op_summary(profiler))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("train")
    p.add_argument("--dataset", required=True)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--aggregator", default="weighted")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_train)
    p = sub.add_parser("serve")
    p.add_argument("--trace-out", required=True)
    p.add_argument("repro_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=_serve)
    args = parser.parse_args(argv)
    if getattr(args, "repro_args", None) and args.repro_args[0] == "--":
        args.repro_args = args.repro_args[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
