"""Every name a module exports must exist: a deleted function may not
linger in an ``__all__``."""

import importlib
import pkgutil

import gabwin


def test_every_exported_name_resolves():
    modules = [gabwin] + [importlib.import_module(f"gabwin.{m.name}")
                          for m in pkgutil.iter_modules(gabwin.__path__)
                          if m.name != "__main__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
