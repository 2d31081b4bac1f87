"""Transcript of perfbench's cli-cold commands, for comparing two trees.

    python tests/cli_transcript.py TREE OUTDIR

builds the 45 commands of the `cli-cold` workload at seed 1 from
TREE/perfbench, runs each in a fresh `python -m cantorkit` on TREE/src, and
writes its exit code, stdout and stderr to OUTDIR/NN.txt; the files the
commands read and wrote are left in OUTDIR/files.  TREE and OUTDIR are written
as <tree> and <out>, so `diff -r` of two transcripts shows only what the
commands did differently.  Not a test: pytest does not collect this file.
"""

import os
import sys
import types


def main(tree, outdir):
    tree, outdir = os.path.abspath(tree), os.path.abspath(outdir)
    os.makedirs(os.path.join(outdir, "files"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.path.join(tree, "src")
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    os.chdir(tree)   # the workload finds its input files from the working directory
    import workloads
    cold = workloads.CliCold(types.SimpleNamespace(MODULES=()), 1, os.path.join(outdir, "files"))
    for at, job in enumerate(cold.setup()):
        code, stdout, stderr = job.work()
        text = "$ %s\nexit %d\n--- stdout\n%s--- stderr\n%s" % (
            job.name, code, stdout.decode(errors="backslashreplace"), stderr)
        with open(os.path.join(outdir, "%02d.txt" % at), "w") as fh:
            fh.write(text.replace(tree, "<tree>").replace(outdir, "<out>"))


if __name__ == "__main__":
    main(*sys.argv[1:])
