"""A frozen copy of csrt: the benchmark's calibration reference.

The modules here are byte-for-byte copies of src/csrt/{errors, alignments,
autodiff, config, data, decoding, losses, model, training}.py at commit 0f4e173,
the commit the benchmark was defined at. The benchmark runs small fixed
pieces of the same work with them, interleaved with the work it measures,
to gauge how fast the machine is at that moment (see ../calibrate.py).
Do not edit them: a change here moves every calibrated figure.
"""
