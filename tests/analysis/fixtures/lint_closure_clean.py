"""Non-firing fixture for RA405: recursion that leaves no cycle behind,
and self-named locals that are not recursion.  Must report nothing."""


def count_nodes(root):
    def visit(node):
        if node is None:
            return 0
        return 1 + visit(node.left) + visit(node.right)

    try:
        return visit(root)
    finally:
        visit = None  # empties the cell: no cycle outlives the call


def mutual(root):
    def even(node):
        return True if node is None else odd(node.next)

    def odd(node):
        return False if node is None else even(node.next)

    try:
        return even(root)
    finally:
        even = odd = None


def module_level(node):
    return 0 if node is None else 1 + module_level(node.next)


def shadowed(items):
    def items_of(items_of):  # the parameter, not the function
        return list(items_of)

    def total(values):
        total = sum(values)  # a local, not the function
        return total

    class Plan:
        def tasks(self):  # a method: its name is not a closure cell
            tasks = list(items)
            return tasks

    return total(items_of(items)), Plan
