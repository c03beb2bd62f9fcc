import binascii
import os

from setuptools import setup, Extension

# The compiled kernel is optional: the package falls back to the pure-Python
# twin (qcloak._kernel_py) when the extension is absent or fails to build.
# GCC and Clang get -ffp-contract=off: FMA targets (aarch64, -march=haswell)
# would otherwise fuse a*b + c into one rounding, which the twin never does.
# The module records the CRC-32 of the source it was built from, so that
# qcloak.propagate can refuse a build left over from an older _kernel.c.
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "src", "qcloak", "_kernel.c")
with open(SOURCE, "rb") as fh:
    SOURCE_CRC32 = "%08x" % binascii.crc32(fh.read())

setup(ext_modules=[
    Extension("qcloak._kernel", ["src/qcloak/_kernel.c"], optional=True,
              define_macros=[("QCLOAK_SOURCE_CRC32",
                              '"%s"' % SOURCE_CRC32)],
              extra_compile_args=[] if os.name == "nt"
              else ["-ffp-contract=off"]),
])
