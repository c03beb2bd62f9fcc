from setuptools import setup, Extension

# The compiled kernel is optional: the package falls back to the pure-Python
# twin (qcloak._kernel_py) when the extension is absent or fails to build.
setup(ext_modules=[
    Extension("qcloak._kernel", ["src/qcloak/_kernel.c"], optional=True),
])
