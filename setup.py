import os

from setuptools import setup, Extension

# The compiled kernel is optional: the package falls back to the pure-Python
# twin (qcloak._kernel_py) when the extension is absent or fails to build.
# GCC and Clang get -ffp-contract=off: FMA targets (aarch64, -march=haswell)
# would otherwise fuse a*b + c into one rounding, which the twin never does.
setup(ext_modules=[
    Extension("qcloak._kernel", ["src/qcloak/_kernel.c"], optional=True,
              extra_compile_args=[] if os.name == "nt"
              else ["-ffp-contract=off"]),
])
