
program dyfesm
  input integer :: nelem = 48, steps = 10
  integer :: e, t
  real :: stiff(60), disp(60), force(60), mass(60)
  real :: total
  do e = 1, nelem
    stiff(e) = 1.0 + real(e) * 0.05
    disp(e) = 0.0
    force(e) = real(e) * 0.2
    mass(e) = 2.0
  end do
  do t = 1, steps
    call assemble(nelem, stiff, disp, force)
    call solve(nelem, disp, force, mass)
  end do
  total = 0.0
  do e = 1, nelem
    total = total + disp(e)
  end do
  print total
end program

subroutine assemble(nelem, stiff, disp, force)
  integer :: nelem, e
  real :: stiff(60), disp(60), force(60)
  real :: s
  s = 0.0
  do e = 1, nelem
    if (mod(e, 2) == 1) then
      s = s + stiff(e) * 1.5
    end if
    force(e) = force(e) * 0.98 + s * 0.01
    if (mod(e, 3) == 0) then
      s = s - disp(e)
    end if
    disp(e) = disp(e) + force(e) * 0.001
  end do
end subroutine

subroutine solve(nelem, disp, force, mass)
  integer :: nelem, e
  real :: disp(60), force(60), mass(60)
  do e = 1, nelem
    disp(e) = disp(e) + force(e) / mass(e) * 0.01
  end do
end subroutine
