"""Public defs that nothing calls.  Naming ``documented_only`` in this
docstring is not a use either."""


def shown_off():  # repro-lint-expect: API001
    return _helper()


def listed():  # repro-lint-expect: API001
    return "documented_only"


def lazy_only():  # repro-lint-expect: API001
    return 0


def documented_only():  # repro-lint-expect: API001
    return 0


class Gadget:  # repro-lint-expect: API001
    def unused_method(self):
        return 0


def used_by_helper():
    return 1


def _helper():
    return used_by_helper()
