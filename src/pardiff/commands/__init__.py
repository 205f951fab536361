"""One module per CLI command. Each exports OPTIONS, its option table, and
run(args), its handler; pardiff.cli imports only the module of the command
it runs, so a call compiles no other command's code."""
